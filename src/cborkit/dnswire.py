"""Classic DNS wire format (RFC 1035) encode/decode.

Names decode with full compression-pointer expansion; the pointer chain
must move strictly backwards, so parsing is loop-free, and one name
follows at most 127 pointers, so no name walks a long chain.  On encode,
compression points at the longest previously written suffix, its
earliest occurrence, including names embedded in the rdata of the
RFC 1035 record types that carry them (NS, CNAME, SOA, PTR, MX, SRV).
``SuffixTable`` states that rule once, for these byte offsets (an offset
past the 14-bit pointer range is never recorded) and for the component
indices of ``dnscbor``.  Decoded rdata for those types is re-serialized
uncompressed so a message compares equal regardless of how it was
compressed on the wire.

``RDATA_LAYOUTS`` is the one place the byte layout of name-bearing rdata
lives: the wire codec, the CBOR codec and the analysis all split and
build that rdata through ``unpack_rdata``, ``pack_rdata`` and
``ResourceRecord.rdata_fields``.  ``decode_wire`` keeps on each record the
split it makes while expanding pointers, and within one message it makes
names with the same label bytes (case kept) one ``Name``, which works out
its key and presentation form once.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import NamedTuple


class DnsWireError(Exception):
    pass


class Truncated(DnsWireError):
    pass


class PointerLoop(DnsWireError):
    pass


class LabelOverflow(DnsWireError):
    pass


class NameOverflow(DnsWireError):
    pass


class BadPointerTarget(DnsWireError):
    pass


class SectionOverflow(DnsWireError):
    pass


class FieldOverflow(DnsWireError):
    """An integer field does not fit its fixed width."""


TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_MX = 15
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_SRV = 33
TYPE_OPT = 41

CLASS_IN = 1

# Rdata of the record types that embed names (RFC 1035 section 3.3,
# RFC 2782): big-endian integers before the names as a struct format, the
# number of uncompressed names, and the integers after them.
RDATA_LAYOUTS: dict[int, tuple[str, int, str]] = {
    TYPE_NS: ("", 1, ""),
    TYPE_CNAME: ("", 1, ""),
    TYPE_PTR: ("", 1, ""),
    TYPE_MX: ("H", 1, ""),  # preference, exchange
    TYPE_SRV: ("HHH", 1, ""),  # priority, weight, port, target
    TYPE_SOA: ("", 2, "IIIII"),  # mname, rname, serial .. minimum
}

FLAG_QR = 0x8000

_POINTER_MASK = 0xC0
_MAX_POINTER = 0x3FFF
_MAX_HOPS = 127  # pointers one name may follow: the most labels of a 255-byte name
_HEADER_LEN = 12

_ESCAPED = frozenset(b'."\\;()@$')
# Presentation-form tokens: an escape (\DDD or \X), a dot, a run of other
# characters, or a backslash that ends the text.
_TEXT_TOKENS = re.compile(r"\\(?:[0-9]{3}|.)?|\.|[^\\.]+", re.DOTALL)


@dataclass(frozen=True, slots=True)
class Name:
    """A DNS name as an ordered tuple of labels (empty tuple = root).

    Equality, hash and repr read ``labels`` only; ``key()`` and
    ``to_text()`` work out their result once."""

    labels: tuple[bytes, ...] = ()
    _key: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label in self.labels:
            if not label:
                raise LabelOverflow("empty label")
            if len(label) > 63:
                raise LabelOverflow("label longer than 63 bytes")
        if self.wire_length() > 255:
            raise NameOverflow("name longer than 255 wire bytes")
        labels = self.labels
        joined = b"".join(labels)
        # A name already in lower case is its own key and costs no memory.
        key = labels if joined.lower() == joined else tuple([label.lower() for label in labels])
        object.__setattr__(self, "_key", key)

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation form ('' or '.' both mean root)."""
        if text in ("", "."):
            return cls(())
        if "\\" not in text:
            if text[-1] == ".":
                text = text[:-1]
            return cls(tuple([label.encode("utf-8") for label in text.split(".")]))
        labels: list[bytes] = []
        current = bytearray()
        for token in _TEXT_TOKENS.findall(text):
            if token == ".":
                labels.append(bytes(current))
                current = bytearray()
            elif token[0] != "\\":
                current += token.encode("utf-8")
            elif len(token) == 4:  # \DDD
                code = int(token[1:])
                if code > 255:
                    raise DnsWireError("escape %s out of byte range" % token)
                current.append(code)
            elif len(token) == 2:
                current += token[1].encode("utf-8")
            else:
                raise DnsWireError("dangling escape")
        if token != ".":  # a final dot that is not escaped ends the name
            labels.append(bytes(current))
        return cls(tuple(labels))

    def to_text(self) -> str:
        """Presentation form without a trailing dot; root renders as ''."""
        if self._text is None:
            object.__setattr__(self, "_text", ".".join(map(_label_text, self.labels)))
        return self._text

    def key(self) -> tuple[bytes, ...]:
        """Case-insensitive comparison key: ASCII letters folded (RFC 4343)."""
        return self._key

    def wire_length(self) -> int:
        return sum(map(len, self.labels)) + len(self.labels) + 1

    def to_wire(self) -> bytes:
        out = bytearray()
        for label in self.labels:
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)

    def equals(self, other: "Name") -> bool:
        return self._key == other._key


# Presentation form of each byte on its own: ``_ESCAPED`` characters behind
# a backslash, other printable ASCII as is, everything else as ``\DDD``.
_BYTE_TEXT = tuple(
    "\\" + chr(b) if b in _ESCAPED else chr(b) if 0x20 < b < 0x7F else "\\%03d" % b
    for b in range(256)
)
# The bytes that stand for themselves.
_PLAIN = bytes(b for b in range(256) if _BYTE_TEXT[b] == chr(b))


def _label_text(label: bytes) -> str:
    if not label.translate(None, _PLAIN):
        return label.decode("ascii")
    try:
        text = label.decode("utf-8")
    except UnicodeDecodeError:
        return "".join([_BYTE_TEXT[b] for b in label])
    # A UTF-8 label keeps its printable non-ASCII characters.
    return "".join([
        ch if ch > "\x7f" and ch.isprintable()
        else "".join([_BYTE_TEXT[b] for b in ch.encode("utf-8")])
        for ch in text
    ])


@dataclass
class Question:
    name: Name
    rtype: int = TYPE_A
    rclass: int = CLASS_IN

    def matches(self, other: "Question") -> bool:
        return (
            self.name.equals(other.name)
            and self.rtype == other.rtype
            and self.rclass == other.rclass
        )


@dataclass
class ResourceRecord:
    name: Name
    rtype: int
    rclass: int
    ttl: int
    rdata: bytes  # pointer-expanded, uncompressed form
    # decode_wire's (rdata, split), used while rdata is that object.
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.rdata) > 0xFFFF:
            raise SectionOverflow("rdata longer than 65535 bytes")

    def rdata_fields(self) -> RdataFields | None:
        """The rdata split by its ``RDATA_LAYOUTS`` entry; None for a type
        without names or rdata that does not fit its layout."""
        split = self._split
        if split is not None and split[0] is self.rdata:
            return split[1]
        try:
            return unpack_rdata(self.rtype, self.rdata)
        except DnsWireError:
            return None


@dataclass
class DnsMessage:
    id: int = 0
    flags: int = 0
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR)


def _read_name(data: bytes, offset: int, min_target: int, names: dict) -> tuple[Name, int]:
    """Decode a possibly compressed name starting at ``offset``.

    Returns the name and the offset just past its in-place encoding; a
    name whose labels are already in ``names`` is that object.  Every
    pointer must target a strictly smaller offset than the last jump (or
    than the pointer itself for the first jump).
    """
    labels: list[bytes] = []
    total = 1
    hops = 0
    pos = offset
    resume = -1
    limit = len(data)  # upper bound for the next pointer target
    while True:
        if pos >= len(data):
            raise Truncated("name runs past message end")
        length = data[pos]
        if length & _POINTER_MASK == _POINTER_MASK:
            if pos + 1 >= len(data):
                raise Truncated("pointer missing second byte")
            target = ((length & 0x3F) << 8) | data[pos + 1]
            hops += 1
            if hops > _MAX_HOPS:
                raise PointerLoop("name follows more than %d pointers" % _MAX_HOPS)
            if resume < 0:
                resume = pos + 2
                limit = pos
            if target >= limit:
                raise PointerLoop(
                    "pointer at %d targets non-decreasing offset %d" % (pos, target)
                )
            if target < min_target:
                raise BadPointerTarget(
                    "pointer target %d lands inside the header" % target
                )
            limit = target
            pos = target
            continue
        if length & _POINTER_MASK:
            raise LabelOverflow("label length byte %#x uses a reserved prefix" % length)
        if length == 0:
            pos += 1
            break
        if pos + 1 + length > len(data):
            raise Truncated("label runs past message end")
        total += length + 1
        if total > 255:
            raise NameOverflow("expanded name longer than 255 bytes")
        labels.append(bytes(data[pos + 1 : pos + 1 + length]))
        pos += 1 + length
    end = resume if resume >= 0 else pos
    key = tuple(labels)
    name = names.get(key)
    if name is None:
        name = names[key] = Name(key)
    return name, end


class RdataFields(NamedTuple):
    """Name-bearing rdata split by its ``RDATA_LAYOUTS`` entry."""

    prefix: tuple[int, ...]
    names: tuple[Name, ...]
    tail: tuple[int, ...]


def _split_rdata(
    data: bytes, start: int, end: int, layout: tuple[str, int, str], min_target: int, names: dict
) -> RdataFields:
    """Split the rdata at ``data[start:end]``; its names may point back
    into ``data`` but no lower than ``min_target``."""
    head, count, tail = layout
    head_len = struct.calcsize(">" + head)
    tail_len = struct.calcsize(">" + tail)
    if end - start < head_len + count + tail_len:
        raise Truncated("rdata shorter than its fixed fields and names")
    pos = start + head_len
    found = []
    for _ in range(count):
        name, pos = _read_name(data, pos, min_target, names)
        found.append(name)
    if pos + tail_len != end:
        raise Truncated("rdata does not end after its names and fixed fields")
    return RdataFields(
        struct.unpack_from(">" + head, data, start),
        tuple(found),
        struct.unpack_from(">" + tail, data, pos),
    )


def unpack_rdata(rtype: int, rdata: bytes) -> RdataFields | None:
    """Uncompressed rdata -> its fields, or None for a type without names."""
    layout = RDATA_LAYOUTS.get(rtype)
    if layout is None:
        return None
    return _split_rdata(rdata, 0, len(rdata), layout, 0, {})


def pack_rdata(rtype: int, fields: RdataFields) -> bytes:
    """The uncompressed rdata of a name-bearing type."""
    head, _, tail = RDATA_LAYOUTS[rtype]
    names = b"".join(name.to_wire() for name in fields.names)
    try:
        return struct.pack(">" + head, *fields.prefix) + names + struct.pack(">" + tail, *fields.tail)
    except struct.error as exc:
        raise FieldOverflow("rdata field: %s" % exc) from exc


def decode_wire(data: bytes) -> DnsMessage:
    if len(data) < 12:
        raise Truncated("message shorter than the 12-byte header")
    msg_id, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", data[:12])
    pos = _HEADER_LEN
    names: dict[tuple[bytes, ...], Name] = {}  # one object per spelling
    questions = []
    for _ in range(qd):
        name, pos = _read_name(data, pos, _HEADER_LEN, names)
        if pos + 4 > len(data):
            raise Truncated("question shorter than type+class")
        rtype, rclass = struct.unpack(">HH", data[pos : pos + 4])
        pos += 4
        questions.append(Question(name, rtype, rclass))
    sections: list[list[ResourceRecord]] = []
    for count in (an, ns, ar):
        records = []
        for _ in range(count):
            name, pos = _read_name(data, pos, _HEADER_LEN, names)
            if pos + 10 > len(data):
                raise Truncated("record header incomplete")
            rtype, rclass, ttl, rdlen = struct.unpack(">HHIH", data[pos : pos + 10])
            pos += 10
            if pos + rdlen > len(data):
                raise Truncated("rdata runs past message end")
            layout = RDATA_LAYOUTS.get(rtype)
            if layout is None:
                record = ResourceRecord(name, rtype, rclass, ttl, data[pos : pos + rdlen])
            else:
                # Pointers inside name-bearing rdata are expanded.
                split = _split_rdata(data, pos, pos + rdlen, layout, _HEADER_LEN, names)
                record = ResourceRecord(name, rtype, rclass, ttl, pack_rdata(rtype, split))
                record._split = (record.rdata, split)
            pos += rdlen
            records.append(record)
        sections.append(records)
    return DnsMessage(msg_id, flags, questions, *sections)


class SuffixTable(dict):
    """Name suffixes, as tails of ``Name.key()``, each mapped to the position
    where it first appeared: a byte offset for wire pointers (RFC 1035
    section 4.1.4), a component index for CBOR references.  Record a suffix
    with ``setdefault`` so the earliest position wins."""

    def longest(self, key: tuple[bytes, ...]) -> tuple[int, int | None]:
        """The number of leading labels to spell out and the position of
        the longest recorded suffix covering the rest (None: no suffix)."""
        for i in range(len(key)):
            position = self.get(key[i:])
            if position is not None:
                return i, position
        return len(key), None


def _emit_name(out: bytearray, name: Name, table: SuffixTable | None) -> None:
    if table is None:
        out += name.to_wire()
        return
    labels = name.labels
    key = name.key()
    literal_count, offset = table.longest(key)
    for i in range(literal_count):
        # A suffix written past the 14-bit pointer range is never recorded;
        # later offsets only grow, so it stays out of reach.
        if len(out) <= _MAX_POINTER:
            table.setdefault(key[i:], len(out))
        out.append(len(labels[i]))
        out += labels[i]
    if offset is None:
        out.append(0)
    else:
        out += struct.pack(">H", 0xC000 | offset)


def _emit_rdata(out: bytearray, record: ResourceRecord, table: SuffixTable | None) -> None:
    rdlen_at = len(out)
    out += b"\x00\x00"
    start = len(out)
    fields = record.rdata_fields() if table is not None else None
    if fields is None:
        out += record.rdata  # also rdata that does not fit its layout
    else:
        head, _, tail = RDATA_LAYOUTS[record.rtype]
        out += struct.pack(">" + head, *fields.prefix)
        for name in fields.names:
            _emit_name(out, name, table)
        out += struct.pack(">" + tail, *fields.tail)
    struct.pack_into(">H", out, rdlen_at, len(out) - start)


def encode_wire(msg: DnsMessage, compress: bool = True) -> bytes:
    for section in (msg.questions, msg.answers, msg.authority, msg.additional):
        if len(section) > 0xFFFF:
            raise SectionOverflow("section count exceeds 16 bits")
    try:
        out = bytearray(
            struct.pack(
                ">HHHHHH",
                msg.id,
                msg.flags,
                len(msg.questions),
                len(msg.answers),
                len(msg.authority),
                len(msg.additional),
            )
        )
        table = SuffixTable() if compress else None
        for question in msg.questions:
            _emit_name(out, question.name, table)
            out += struct.pack(">HH", question.rtype, question.rclass)
        for record in (*msg.answers, *msg.authority, *msg.additional):
            _emit_name(out, record.name, table)
            out += struct.pack(">HHI", record.rtype, record.rclass, record.ttl)
            _emit_rdata(out, record, table)
    except struct.error as exc:
        raise FieldOverflow("message field: %s" % exc) from exc
    return bytes(out)


def name_rdata(text: str) -> bytes:
    """Uncompressed rdata for NS/CNAME/PTR records."""
    return pack_rdata(TYPE_CNAME, RdataFields((), (Name.from_text(text),), ()))
