"""CBOR data model and codec.

Items are modeled as a small closed set of slotted dataclasses (one per major
type, with booleans/null/undefined split out of the simple-value space
for a cleaner JSON mapping).  The encoder always emits definite lengths
and shortest-form integer heads; the decoder additionally accepts
indefinite-length strings, arrays and maps and normalizes them into the
definite model.

``head`` and ``_encode_into`` are the one statement of the encoding
rules: ``item_size`` is the length of ``encode``, and other modules take
heads and text encodings from ``head``, ``utf8`` and ``text_encoding``
rather than restating them.  ``_float_width`` is the one rule for a
float's width, in every float mode and in ``smallest_float_width``.
``head_size`` keeps its own comparisons because the packer's arithmetic
calls it too often to build a head each time; the tests hold it to
``len(head(...))``.

The decoder is one pass: ``_decode_item`` reads each head straight from
the input, checks every length against its end once, and returns the item
with the offset after it.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Union

DEFAULT_MAX_DEPTH = 128

FLOAT_PRESERVE = "preserve"
FLOAT_FORCE_DOUBLE = "force_double"
FLOAT_SMALLEST = "smallest"

_CANONICAL_NAN = b"\xf9\x7e\x00"


class CborError(Exception):
    pass


class DepthExceeded(CborError):
    pass


class InvalidSimple(CborError):
    pass


class Truncated(CborError):
    pass


class ReservedIndicator(CborError):
    pass


class MalformedIndefinite(CborError):
    pass


class InvalidUtf8(CborError):
    pass


@dataclass(frozen=True, slots=True)
class Uint:
    """Unsigned integer, 0 .. 2**64 - 1."""

    value: int


@dataclass(frozen=True, slots=True)
class Nint:
    """Negative integer; ``n`` is the encoded argument, the value is -1 - n."""

    n: int

    @property
    def value(self) -> int:
        return -1 - self.n


@dataclass(frozen=True, slots=True)
class Bytes:
    data: bytes


@dataclass(frozen=True, slots=True)
class Text:
    data: str


@dataclass(slots=True)
class Array:
    items: list["CborItem"] = field(default_factory=list)


@dataclass(slots=True)
class Map:
    """Key/value pairs in insertion order; duplicate keys are representable."""

    entries: list[tuple["CborItem", "CborItem"]] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class Tag:
    number: int
    content: "CborItem"


@dataclass(frozen=True, slots=True)
class Simple:
    """Simple value 0..19 or 32..255 (20..31 are literals or reserved heads)."""

    value: int


@dataclass(frozen=True, slots=True)
class Bool:
    value: bool


@dataclass(frozen=True, slots=True)
class Null:
    pass


@dataclass(frozen=True, slots=True)
class Undefined:
    pass


@dataclass(frozen=True, eq=False, slots=True)
class Float:
    """IEEE 754 number with the width it was decoded at (or should prefer).

    Equality is bit-exact on the double representation so that negative
    zero and NaN compare predictably in round-trip checks.
    """

    value: float
    preferred_width: int = 64  # 16, 32 or 64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Float):
            return NotImplemented
        return (
            struct.pack(">d", self.value) == struct.pack(">d", other.value)
            and self.preferred_width == other.preferred_width
        )

    def __hash__(self) -> int:
        return hash((struct.pack(">d", self.value), self.preferred_width))


CborItem = Union[
    Uint, Nint, Bytes, Text, Array, Map, Tag, Simple, Bool, Null, Undefined, Float
]


@dataclass(frozen=True)
class EncodeOptions:
    float_mode: str = FLOAT_PRESERVE


_ONE_BYTE_HEADS = [bytes((initial,)) for initial in range(256)]


def head(major: int, argument: int) -> bytes:
    """Shortest-form head for the given major type and argument."""
    base = major << 5
    if argument < 24:
        if argument >= 0:
            return _ONE_BYTE_HEADS[base | argument]
    elif argument <= 0xFF:
        return bytes((base | 24, argument))
    elif argument <= 0xFFFF:
        return struct.pack(">BH", base | 25, argument)
    elif argument <= 0xFFFFFFFF:
        return struct.pack(">BI", base | 26, argument)
    elif argument <= 0xFFFFFFFFFFFFFFFF:
        return struct.pack(">BQ", base | 27, argument)
    raise CborError("argument outside 0 .. 2**64 - 1: %d" % argument)


def head_size(argument: int) -> int:
    """Length of the shortest-form head carrying ``argument``."""
    if argument < 24:
        if argument >= 0:
            return 1
    elif argument <= 0xFF:
        return 2
    elif argument <= 0xFFFF:
        return 3
    elif argument <= 0xFFFFFFFF:
        return 5
    elif argument <= 0xFFFFFFFFFFFFFFFF:
        return 9
    raise CborError("argument outside 0 .. 2**64 - 1: %d" % argument)


def utf8(text: str) -> bytes:
    """The UTF-8 payload of a text string; a lone surrogate raises InvalidUtf8."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidUtf8(str(exc)) from exc


def text_encoding(text: str) -> bytes:
    """The encoding of ``Text(text)``: its head, then its UTF-8 payload."""
    data = utf8(text)
    return head(3, len(data)) + data


# Each IEEE width in bits: the initial byte of its head and its struct format.
_FLOAT_WIDTHS = {16: (b"\xf9", ">e"), 32: (b"\xfa", ">f"), 64: (b"\xfb", ">d")}


def _float_width(value: float, floor: int) -> int:
    """The narrowest of 16, 32 and 64 bits, not below ``floor``, that holds
    the non-NaN ``value`` exactly (64 when none narrower does)."""
    for width in (16, 32):
        fmt = _FLOAT_WIDTHS[width][1]
        try:
            # Exact: NaN never comes here, and every width keeps zero's sign.
            if width >= floor and struct.unpack(fmt, struct.pack(fmt, value))[0] == value:
                return width
        except (OverflowError, ValueError):  # beyond the width's range
            pass
    return 64


def _float_bytes(item: Float, mode: str) -> bytes:
    v = item.value
    if math.isnan(v):
        # Deterministic output: every NaN becomes the canonical quiet NaN.
        return _CANONICAL_NAN
    if mode == FLOAT_PRESERVE:
        floor = item.preferred_width
    elif mode == FLOAT_SMALLEST:
        floor = 16
    elif mode == FLOAT_FORCE_DOUBLE:
        floor = 64
    else:
        raise CborError("unknown float mode: %r" % mode)
    initial, fmt = _FLOAT_WIDTHS[_float_width(v, floor)]
    return initial + struct.pack(fmt, v)


def smallest_float_width(value: float) -> int:
    """Narrowest IEEE width (16/32/64) that represents ``value`` exactly."""
    return 16 if math.isnan(value) else _float_width(value, 16)


def encode(item: CborItem, opts: EncodeOptions = EncodeOptions()) -> bytes:
    out = bytearray()
    _encode_into(out, item, opts, DEFAULT_MAX_DEPTH)
    return bytes(out)


def item_size(item: CborItem, opts: EncodeOptions = EncodeOptions()) -> int:
    """Encoded size in bytes: the length of ``encode(item, opts)``, and it
    raises whatever ``encode`` raises."""
    # Not len(encode(...)): that copies the buffer, and a wrapper that
    # traces ``encode`` would count each size query as an encode.
    out = bytearray()
    _encode_into(out, item, opts, DEFAULT_MAX_DEPTH)
    return len(out)


def _encode_into(out: bytearray, item: CborItem, opts: EncodeOptions, depth: int) -> None:
    if depth < 0:
        raise DepthExceeded("item tree deeper than %d" % DEFAULT_MAX_DEPTH)
    # One branch per item class, the most frequent first.
    kind = type(item)
    if kind is Text:
        data = utf8(item.data)
        out += head(3, len(data))
        out += data
    elif kind is Uint:
        out += head(0, item.value)
    elif kind is Array:
        out += head(4, len(item.items))
        for child in item.items:
            _encode_into(out, child, opts, depth - 1)
    elif kind is Map:
        out += head(5, len(item.entries))
        for key, value in item.entries:
            _encode_into(out, key, opts, depth - 1)
            _encode_into(out, value, opts, depth - 1)
    elif kind is Bytes:
        out += head(2, len(item.data))
        out += item.data
    elif kind is Tag:
        out += head(6, item.number)
        _encode_into(out, item.content, opts, depth - 1)
    elif kind is Nint:
        out += head(1, item.n)
    elif kind is Bool:
        out.append(0xF5 if item.value else 0xF4)
    elif kind is Null:
        out.append(0xF6)
    elif kind is Undefined:
        out.append(0xF7)
    elif kind is Simple:
        v = item.value
        if 0 <= v <= 19:
            out.append(0xE0 | v)
        elif 32 <= v <= 255:
            out += bytes((0xF8, v))
        else:
            # 20..31 are the literals and reserved heads of major type 7.
            raise InvalidSimple("simple value %d is not in 0..19 or 32..255" % v)
    elif kind is Float:
        out += _float_bytes(item, opts.float_mode)
    else:
        raise CborError("not a CBOR item: %r" % (item,))


_BREAK = object()
_ARG_BYTES = {24: 1, 25: 2, 26: 4, 27: 8}


def decode(data: bytes) -> tuple[CborItem, int]:
    """Decode one item; returns (item, bytes consumed) so callers can
    reject trailing bytes.  Never reads past the input."""
    if not data:
        raise Truncated("empty input")
    return _decode_item(bytes(data), 0, DEFAULT_MAX_DEPTH, False)


def decode_sequence(data: bytes) -> list[CborItem]:
    """Every item of a CBOR sequence (RFC 8742), each read in place."""
    data = bytes(data)
    items, pos = [], 0
    while pos < len(data):
        item, pos = _decode_item(data, pos, DEFAULT_MAX_DEPTH, False)
        items.append(item)
    return items


def _truncated(need: int, pos: int, end: int) -> Truncated:
    return Truncated("need %d bytes at offset %d, have %d" % (need, pos, end - pos))


def _decode_item(data: bytes, pos: int, depth: int, allow_break: bool):
    """The item whose head is at ``data[pos]``, and the offset after it."""
    if depth < 0:
        raise DepthExceeded("nesting deeper than %d" % DEFAULT_MAX_DEPTH)
    end = len(data)
    if pos >= end:
        raise _truncated(1, pos, end)
    major = data[pos] >> 5
    indicator = arg = data[pos] & 0x1F
    pos += 1
    if indicator >= 24:
        size = _ARG_BYTES.get(indicator)
        if size is None:
            if indicator != 31:
                raise ReservedIndicator("indicator %d (major %d) is reserved" % (indicator, major))
            if major == 7:
                if allow_break:
                    return _BREAK, pos
                raise MalformedIndefinite("stray break")
            if major < 2 or major == 6:
                raise ReservedIndicator("indefinite length invalid for major %d" % major)
            return _decode_indefinite(data, pos, major, depth)
        if pos + size > end:
            raise _truncated(size, pos, end)
        arg = int.from_bytes(data[pos : pos + size], "big")
        pos += size
    # One branch per major type, the most frequent first.
    if major == 3 or major == 2:
        stop = pos + arg
        if stop > end:
            raise _truncated(arg, pos, end)
        if major == 2:
            return Bytes(data[pos:stop]), stop
        try:
            return Text(data[pos:stop].decode("utf-8")), stop
        except UnicodeDecodeError as exc:
            raise InvalidUtf8(str(exc)) from exc
    if major == 0:
        return Uint(arg), pos
    if major == 4:
        items = []
        for _ in range(arg):
            child, pos = _decode_item(data, pos, depth - 1, False)
            items.append(child)
        return Array(items), pos
    if major == 6:
        content, pos = _decode_item(data, pos, depth - 1, False)
        return Tag(arg, content), pos
    if major == 5:
        entries = []
        for _ in range(arg):
            key, pos = _decode_item(data, pos, depth - 1, False)
            value, pos = _decode_item(data, pos, depth - 1, False)
            entries.append((key, value))
        return Map(entries), pos
    if major == 1:
        return Nint(arg), pos
    # major 7
    if indicator <= 19:
        return Simple(indicator), pos
    if indicator == 20 or indicator == 21:
        return Bool(indicator == 21), pos
    if indicator == 22:
        return Null(), pos
    if indicator == 23:
        return Undefined(), pos
    if indicator == 24:
        if arg < 32:
            raise InvalidSimple("two-byte simple value %d below 32" % arg)
        return Simple(arg), pos
    value = struct.unpack(_FLOAT_WIDTHS[8 * size][1], data[pos - size : pos])[0]
    return Float(value, 8 * size), pos


def _decode_indefinite(data: bytes, pos: int, major: int, depth: int):
    if major in (2, 3):
        chunks = []
        while True:
            head = data[pos : pos + 1]
            if head == b"\xff":
                pos += 1
                break
            if not head:
                raise Truncated("unterminated indefinite string")
            chunk_major = head[0] >> 5
            chunk_ind = head[0] & 0x1F
            if chunk_major != major or chunk_ind == 31:
                raise MalformedIndefinite(
                    "indefinite string chunk of wrong type (major %d)" % chunk_major
                )
            chunk, pos = _decode_item(data, pos, depth - 1, False)
            chunks.append(chunk.data)  # type: ignore[union-attr]
        if major == 2:
            return Bytes(b"".join(chunks)), pos
        return Text("".join(chunks)), pos
    if major == 4:
        items = []
        while True:
            child, pos = _decode_item(data, pos, depth - 1, True)
            if child is _BREAK:
                return Array(items), pos
            items.append(child)
    # major == 5
    entries = []
    while True:
        key, pos = _decode_item(data, pos, depth - 1, True)
        if key is _BREAK:
            return Map(entries), pos
        value, pos = _decode_item(data, pos, depth - 1, True)
        if value is _BREAK:
            raise MalformedIndefinite("break splits a map pair")
        entries.append((key, value))


def to_diagnostic(item: CborItem) -> str:
    """Deterministic diagnostic-notation rendering."""
    if isinstance(item, (Uint, Nint)):
        return str(item.value)
    if isinstance(item, Bytes):
        return "h'%s'" % item.data.hex()
    if isinstance(item, Text):
        return json.dumps(item.data, ensure_ascii=False)
    if isinstance(item, Array):
        return "[%s]" % ", ".join(to_diagnostic(c) for c in item.items)
    if isinstance(item, Map):
        return "{%s}" % ", ".join(
            "%s: %s" % (to_diagnostic(k), to_diagnostic(v)) for k, v in item.entries
        )
    if isinstance(item, Tag):
        return "%d(%s)" % (item.number, to_diagnostic(item.content))
    if isinstance(item, Simple):
        return "simple(%d)" % item.value
    if isinstance(item, Bool):
        return "true" if item.value else "false"
    if isinstance(item, Null):
        return "null"
    if isinstance(item, Undefined):
        return "undefined"
    if isinstance(item, Float):
        if math.isnan(item.value):
            return "NaN"
        if math.isinf(item.value):
            return "Infinity" if item.value > 0 else "-Infinity"
        return repr(item.value)
    raise CborError("not a CBOR item: %r" % (item,))
