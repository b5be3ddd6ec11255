"""CBOR data model and codec.

Items are modeled as a small closed set of dataclasses (one per major
type, with booleans/null/undefined split out of the simple-value space
for a cleaner JSON mapping).  The encoder always emits definite lengths
and shortest-form integer heads; the decoder additionally accepts
indefinite-length strings, arrays and maps and normalizes them into the
definite model.
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


@dataclass(frozen=True)
class Uint:
    """Unsigned integer, 0 .. 2**64 - 1."""

    value: int


@dataclass(frozen=True)
class Nint:
    """Negative integer; ``n`` is the encoded argument, the value is -1 - n."""

    n: int

    @property
    def value(self) -> int:
        return -1 - self.n


@dataclass(frozen=True)
class Bytes:
    data: bytes


@dataclass(frozen=True)
class Text:
    data: str


@dataclass
class Array:
    items: list["CborItem"] = field(default_factory=list)


@dataclass
class Map:
    """Key/value pairs in insertion order; duplicate keys are representable."""

    entries: list[tuple["CborItem", "CborItem"]] = field(default_factory=list)


@dataclass(frozen=True)
class Tag:
    number: int
    content: "CborItem"


@dataclass(frozen=True)
class Simple:
    """Simple value 0..19 or 32..255 (20..31 are literals or reserved heads)."""

    value: int


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Null:
    pass


@dataclass(frozen=True)
class Undefined:
    pass


@dataclass(frozen=True, eq=False)
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


def int_item(value: int) -> CborItem:
    """Model an arbitrary integer in -2**64 .. 2**64 - 1."""
    if value >= 0:
        if value > 0xFFFFFFFFFFFFFFFF:
            raise CborError("integer out of uint64 range: %d" % value)
        return Uint(value)
    n = -1 - value
    if n > 0xFFFFFFFFFFFFFFFF:
        raise CborError("integer below -2**64: %d" % value)
    return Nint(n)


@dataclass(frozen=True)
class EncodeOptions:
    float_mode: str = FLOAT_PRESERVE
    max_depth: int = DEFAULT_MAX_DEPTH


@dataclass(frozen=True)
class DecodeOptions:
    accept_indefinite: bool = True
    max_depth: int = DEFAULT_MAX_DEPTH


def head(major: int, argument: int) -> bytes:
    """Shortest-form head for the given major type and argument."""
    base = major << 5
    if argument < 24:
        return bytes([base | argument])
    if argument <= 0xFF:
        return bytes([base | 24, argument])
    if argument <= 0xFFFF:
        return struct.pack(">BH", base | 25, argument)
    if argument <= 0xFFFFFFFF:
        return struct.pack(">BI", base | 26, argument)
    if argument <= 0xFFFFFFFFFFFFFFFF:
        return struct.pack(">BQ", base | 27, argument)
    raise CborError("argument exceeds 64 bits: %d" % argument)


def head_size(argument: int) -> int:
    """Length of the shortest-form head carrying ``argument``."""
    if argument < 24:
        return 1
    if argument <= 0xFF:
        return 2
    if argument <= 0xFFFF:
        return 3
    if argument <= 0xFFFFFFFF:
        return 5
    return 9


def _width_fits(fmt: str, value: float) -> bool:
    try:
        packed = struct.pack(fmt, value)
    except (OverflowError, ValueError):
        return False
    return struct.pack(">d", struct.unpack(fmt, packed)[0]) == struct.pack(">d", value)


def _float_bytes(item: Float, mode: str) -> bytes:
    v = item.value
    if math.isnan(v):
        # Deterministic output: every NaN becomes the canonical quiet NaN.
        return _CANONICAL_NAN
    if mode == FLOAT_FORCE_DOUBLE:
        return b"\xfb" + struct.pack(">d", v)
    if mode == FLOAT_SMALLEST:
        widths: tuple[int, ...] = (16, 32, 64)
    elif mode == FLOAT_PRESERVE:
        widths = tuple(w for w in (16, 32, 64) if w >= item.preferred_width)
    else:
        raise CborError("unknown float mode: %r" % mode)
    for width in widths:
        if width == 16 and _width_fits(">e", v):
            return b"\xf9" + struct.pack(">e", v)
        if width == 32 and _width_fits(">f", v):
            return b"\xfa" + struct.pack(">f", v)
        if width == 64:
            return b"\xfb" + struct.pack(">d", v)
    return b"\xfb" + struct.pack(">d", v)


def smallest_float_width(value: float) -> int:
    """Narrowest IEEE width (16/32/64) that represents ``value`` exactly."""
    if math.isnan(value):
        return 16
    if _width_fits(">e", value):
        return 16
    if _width_fits(">f", value):
        return 32
    return 64


def encode(item: CborItem, opts: EncodeOptions = EncodeOptions()) -> bytes:
    out = bytearray()
    _encode_into(out, item, opts, opts.max_depth)
    return bytes(out)


def _encode_into(out: bytearray, item: CborItem, opts: EncodeOptions, depth: int) -> None:
    if depth < 0:
        raise DepthExceeded("item tree deeper than %d" % opts.max_depth)
    if isinstance(item, Uint):
        out += head(0, item.value)
    elif isinstance(item, Nint):
        out += head(1, item.n)
    elif isinstance(item, Bytes):
        out += head(2, len(item.data))
        out += item.data
    elif isinstance(item, Text):
        try:
            data = item.data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidUtf8(str(exc)) from exc
        out += head(3, len(data))
        out += data
    elif isinstance(item, Array):
        out += head(4, len(item.items))
        for child in item.items:
            _encode_into(out, child, opts, depth - 1)
    elif isinstance(item, Map):
        out += head(5, len(item.entries))
        for key, value in item.entries:
            _encode_into(out, key, opts, depth - 1)
            _encode_into(out, value, opts, depth - 1)
    elif isinstance(item, Tag):
        out += head(6, item.number)
        _encode_into(out, item.content, opts, depth - 1)
    elif isinstance(item, Bool):
        out.append(0xF5 if item.value else 0xF4)
    elif isinstance(item, Null):
        out.append(0xF6)
    elif isinstance(item, Undefined):
        out.append(0xF7)
    elif isinstance(item, Simple):
        v = item.value
        if 20 <= v <= 31:
            raise InvalidSimple("simple value %d is a literal or reserved head" % v)
        if 0 <= v <= 19:
            out.append(0xE0 | v)
        elif 32 <= v <= 255:
            out += bytes([0xF8, v])
        else:
            raise InvalidSimple("simple value out of range: %d" % v)
    elif isinstance(item, Float):
        out += _float_bytes(item, opts.float_mode)
    else:
        raise CborError("not a CBOR item: %r" % (item,))


def item_size(item: CborItem, opts: EncodeOptions = EncodeOptions()) -> int:
    """Encoded size in bytes without materializing scalar payloads."""
    return _item_size(item, opts, opts.max_depth)


def _item_size(item: CborItem, opts: EncodeOptions, depth: int) -> int:
    if depth < 0:
        raise DepthExceeded("item tree deeper than %d" % opts.max_depth)
    if isinstance(item, Uint):
        return head_size(item.value)
    if isinstance(item, Nint):
        return head_size(item.n)
    if isinstance(item, Bytes):
        return head_size(len(item.data)) + len(item.data)
    if isinstance(item, Text):
        try:
            n = len(item.data.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise InvalidUtf8(str(exc)) from exc
        return head_size(n) + n
    if isinstance(item, Array):
        return head_size(len(item.items)) + sum(
            _item_size(c, opts, depth - 1) for c in item.items
        )
    if isinstance(item, Map):
        return head_size(len(item.entries)) + sum(
            _item_size(k, opts, depth - 1) + _item_size(v, opts, depth - 1)
            for k, v in item.entries
        )
    if isinstance(item, Tag):
        return head_size(item.number) + _item_size(item.content, opts, depth - 1)
    if isinstance(item, (Bool, Null, Undefined)):
        return 1
    if isinstance(item, Simple):
        if 20 <= item.value <= 31 or not 0 <= item.value <= 255:
            raise InvalidSimple("simple value out of range: %d" % item.value)
        return 1 if item.value <= 19 else 2
    if isinstance(item, Float):
        return len(_float_bytes(item, opts.float_mode))
    raise CborError("not a CBOR item: %r" % (item,))


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Truncated(
                "need %d bytes at offset %d, have %d"
                % (n, self.pos, len(self.data) - self.pos)
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


_BREAK = object()
_ARG_BYTES = {24: 1, 25: 2, 26: 4, 27: 8}


def decode(
    data: bytes, opts: DecodeOptions = DecodeOptions()
) -> tuple[CborItem, int]:
    """Decode one item; returns (item, bytes consumed) so callers can
    parse CBOR sequences.  Never reads past the input."""
    if not data:
        raise Truncated("empty input")
    reader = _Reader(bytes(data))
    item = _decode_item(reader, opts, opts.max_depth, allow_break=False)
    return item, reader.pos


def _read_head(reader: _Reader) -> tuple[int, int, int | None]:
    initial = reader.take(1)[0]
    major = initial >> 5
    indicator = initial & 0x1F
    if indicator < 24:
        return major, indicator, indicator
    if indicator in _ARG_BYTES:
        return major, indicator, int.from_bytes(reader.take(_ARG_BYTES[indicator]), "big")
    if indicator == 31:
        return major, indicator, None
    raise ReservedIndicator("indicator %d (major %d) is reserved" % (indicator, major))


def _decode_item(reader: _Reader, opts: DecodeOptions, depth: int, allow_break: bool):
    if depth < 0:
        raise DepthExceeded("nesting deeper than %d" % opts.max_depth)
    major, indicator, arg = _read_head(reader)
    if indicator == 31:
        if major == 7:
            if allow_break:
                return _BREAK
            raise MalformedIndefinite("stray break")
        if major < 2:
            raise ReservedIndicator("indefinite length invalid for major %d" % major)
        if not opts.accept_indefinite:
            raise MalformedIndefinite("indefinite length not accepted")
        return _decode_indefinite(reader, major, opts, depth)
    assert arg is not None
    if major == 0:
        return Uint(arg)
    if major == 1:
        return Nint(arg)
    if major == 2:
        return Bytes(reader.take(arg))
    if major == 3:
        raw = reader.take(arg)
        try:
            return Text(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise InvalidUtf8(str(exc)) from exc
    if major == 4:
        return Array([_decode_item(reader, opts, depth - 1, False) for _ in range(arg)])
    if major == 5:
        entries = []
        for _ in range(arg):
            key = _decode_item(reader, opts, depth - 1, False)
            value = _decode_item(reader, opts, depth - 1, False)
            entries.append((key, value))
        return Map(entries)
    if major == 6:
        return Tag(arg, _decode_item(reader, opts, depth - 1, False))
    # major 7
    if indicator <= 19:
        return Simple(indicator)
    if indicator == 20:
        return Bool(False)
    if indicator == 21:
        return Bool(True)
    if indicator == 22:
        return Null()
    if indicator == 23:
        return Undefined()
    if indicator == 24:
        if arg < 32:
            raise InvalidSimple("two-byte simple value %d below 32" % arg)
        return Simple(arg)
    if indicator == 25:
        return Float(struct.unpack(">e", struct.pack(">H", arg))[0], 16)
    if indicator == 26:
        return Float(struct.unpack(">f", struct.pack(">I", arg))[0], 32)
    return Float(struct.unpack(">d", struct.pack(">Q", arg))[0], 64)


def _decode_indefinite(reader: _Reader, major: int, opts: DecodeOptions, depth: int):
    if major in (2, 3):
        chunks = []
        while True:
            head = reader.data[reader.pos : reader.pos + 1]
            if head == b"\xff":
                reader.pos += 1
                break
            if not head:
                raise Truncated("unterminated indefinite string")
            chunk_major = head[0] >> 5
            chunk_ind = head[0] & 0x1F
            if chunk_major != major or chunk_ind == 31:
                raise MalformedIndefinite(
                    "indefinite string chunk of wrong type (major %d)" % chunk_major
                )
            chunk = _decode_item(reader, opts, depth - 1, False)
            chunks.append(chunk.data)  # type: ignore[union-attr]
        if major == 2:
            return Bytes(b"".join(chunks))
        return Text("".join(chunks))
    if major == 4:
        items = []
        while True:
            child = _decode_item(reader, opts, depth - 1, True)
            if child is _BREAK:
                return Array(items)
            items.append(child)
    # major == 5
    entries = []
    while True:
        key = _decode_item(reader, opts, depth - 1, True)
        if key is _BREAK:
            return Map(entries)
        value = _decode_item(reader, opts, depth - 1, True)
        if value is _BREAK:
            raise MalformedIndefinite("break splits a map pair")
        entries.append((key, value))


def to_diagnostic(item: CborItem) -> str:
    """Deterministic diagnostic-notation rendering."""
    if isinstance(item, Uint):
        return str(item.value)
    if isinstance(item, Nint):
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
