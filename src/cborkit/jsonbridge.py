"""JSON parsing/minification and the JSON <-> CBOR bridge.

JSON values map onto plain Python where that is lossless (None, bool,
str, list); numbers keep their original lexeme in :class:`JsonNumber`
so minified output round-trips byte-for-byte, and objects live in
:class:`JsonObject` so duplicate keys and ordering survive.

``json_to_cbor`` makes one ``Text`` per distinct string in a conversion
and shares it among every key and string value that holds that string
(items are frozen); nothing is shared between conversions.

Also implements the three blob transforms for GitHub-style file maps:
tagging base64 content (tag 34), decoding it to a byte string, and
embedding re-encoded CBOR content (tag 24).
"""

from __future__ import annotations

import base64
import binascii
import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Union

from . import cbor
from .cbor import (
    Array,
    Bool,
    Bytes,
    CborItem,
    Float,
    Map,
    Nint,
    Null,
    Simple,
    Tag,
    Text,
    Uint,
    Undefined,
)

_UINT64_MAX = 0xFFFFFFFFFFFFFFFF
_INT_MIN = -(1 << 64)

BLOB_BASE64_TAG = 34
EMBEDDED_CBOR_TAG = 24


class JsonBridgeError(Exception):
    pass


class JsonSyntaxError(JsonBridgeError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s (at byte %d)" % (message, offset))
        self.offset = offset


class MissingField(JsonBridgeError):
    pass


class Base64Error(JsonBridgeError):
    pass


class SizeMismatch(JsonBridgeError):
    pass


@dataclass(frozen=True)
class JsonNumber:
    """A JSON number with its source lexeme retained."""

    lexeme: str

    @property
    def is_integer(self) -> bool:
        return "." not in self.lexeme and "e" not in self.lexeme and "E" not in self.lexeme


@dataclass
class JsonObject:
    """Ordered key/value pairs; duplicate keys are preserved."""

    entries: list[tuple[str, "JsonValue"]] = field(default_factory=list)


JsonValue = Union[None, bool, JsonNumber, str, list, JsonObject]


def _reject_constant(name: str):
    raise ValueError("non-standard constant %s" % name)


# A string, or a constant Python's JSON scanner accepts.  The one rejected
# is the first outside a string, as the text before it parsed.
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN', re.DOTALL)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8", "surrogatepass"))


_DECODER = json.JSONDecoder(
    parse_int=JsonNumber,
    parse_float=JsonNumber,
    parse_constant=_reject_constant,
    object_pairs_hook=JsonObject,
)


def parse_json(text: str | bytes) -> JsonValue:
    """Strict RFC 8259 parse; raises JsonSyntaxError with a byte offset."""
    if isinstance(text, (bytes, bytearray)):
        try:
            source = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonSyntaxError("invalid UTF-8: %s" % exc.reason, exc.start) from exc
    else:
        source = text  # type: ignore[assignment]
    start = 0
    while start < len(source) and source[start] in " \t\n\r":
        start += 1
    try:
        value, end = _DECODER.raw_decode(source, start)
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, _byte_offset(source, exc.pos)) from exc
    except ValueError as exc:  # from _reject_constant
        found = _STRING_OR_CONSTANT.finditer(source, start)
        pos = next(m.start() for m in found if m[0][0] != '"')
        raise JsonSyntaxError(str(exc), _byte_offset(source, pos)) from exc
    except RecursionError as exc:
        raise JsonSyntaxError("nested too deeply to parse", start) from exc
    rest = source[end:].strip(" \t\n\r")
    if rest:
        raise JsonSyntaxError("trailing data after JSON value", _byte_offset(source, end))
    return value


def minify(value: JsonValue) -> str:
    """Emit without whitespace, preserving key order and number lexemes."""
    parts: list[str] = []
    try:
        _minify_into(parts, value)
    except RecursionError as exc:
        raise JsonBridgeError("nested too deeply to minify") from exc
    return "".join(parts)


def _minify_into(parts: list[str], value: JsonValue) -> None:
    # ``encode_basestring`` is what ``json.dumps(s, ensure_ascii=False)``
    # returns for a string, without building an encoder for each call.
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif isinstance(value, JsonNumber):
        parts.append(value.lexeme)
    elif isinstance(value, JsonObject):
        parts.append("{")
        for i, (key, child) in enumerate(value.entries):
            if i:
                parts.append(",")
            parts.append(encode_basestring(key))
            parts.append(":")
            _minify_into(parts, child)
        parts.append("}")
    elif isinstance(value, list):
        parts.append("[")
        for i, child in enumerate(value):
            if i:
                parts.append(",")
            _minify_into(parts, child)
        parts.append("]")
    elif value is None:
        parts.append("null")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    else:
        raise JsonBridgeError("not a JSON value: %r" % (value,))


def json_to_cbor(
    value: JsonValue,
    float_mode: str = cbor.FLOAT_SMALLEST,
    report: list[str] | None = None,
) -> CborItem:
    """Total conversion; numeric-precision losses are flagged, never raised.

    This is the one place a JSON float's width is decided (also for an
    integer beyond 64 bits): the narrowest exact width under ``smallest``,
    64 bits otherwise, as JSON has no width for ``preserve`` to keep.  It
    is the float's preferred width, so the item encodes the same under the
    default options as under ``float_mode``.  Nesting deeper than
    ``cbor.DEFAULT_MAX_DEPTH``, which ``cbor.encode`` would reject, raises
    ``cbor.DepthExceeded``.
    """
    texts = _Texts()

    def convert(value: JsonValue, depth: int) -> CborItem:
        # ``value`` sits ``depth`` levels above the bound, so a container at
        # depth 0 must be empty.  A string child is looked up in place of a
        # call of its own.
        if isinstance(value, str):
            return texts[value]
        if isinstance(value, JsonNumber):
            return _number_to_cbor(value, float_mode, report)
        if isinstance(value, list):
            if value and not depth:
                raise cbor.DepthExceeded("JSON nested deeper than %d" % cbor.DEFAULT_MAX_DEPTH)
            return Array([texts[c] if type(c) is str else convert(c, depth - 1) for c in value])
        if isinstance(value, JsonObject):
            # An object's keys sit at the level of its values.
            if value.entries and not depth:
                raise cbor.DepthExceeded("JSON nested deeper than %d" % cbor.DEFAULT_MAX_DEPTH)
            seen: set[str] | None = None if report is None else set()
            entries: list[tuple[CborItem, CborItem]] = []
            for key, child in value.entries:
                if seen is not None:
                    if key in seen:
                        report.append("duplicate object key %r kept" % key)
                    seen.add(key)
                entries.append(
                    (texts[key], texts[child] if type(child) is str else convert(child, depth - 1))
                )
            return Map(entries)
        if value is None:
            return Null()
        if isinstance(value, bool):
            return Bool(value)
        raise JsonBridgeError("not a JSON value: %r" % (value,))

    return convert(value, cbor.DEFAULT_MAX_DEPTH)


class _Texts(dict):
    """One conversion's ``Text`` for each distinct string, made on first use."""

    def __missing__(self, data: str) -> Text:
        text = self[data] = Text(data)
        return text


def _number_to_cbor(
    number: JsonNumber, float_mode: str, report: list[str] | None
) -> CborItem:
    if number.is_integer:
        v = int(number.lexeme)
        if 0 <= v <= _UINT64_MAX:
            return Uint(v)
        if _INT_MIN <= v < 0:
            return Nint(-1 - v)
        if report is not None:
            report.append("integer %s outside 64-bit range became a float" % number.lexeme)
        try:
            f = float(v)
        except OverflowError:
            f = float("inf") if v > 0 else float("-inf")
    else:
        f = float(number.lexeme)
    width = cbor.smallest_float_width(f) if float_mode == cbor.FLOAT_SMALLEST else 64
    return Float(f, width)


def cbor_to_json(item: CborItem, report: list[str] | None = None) -> JsonValue:
    """Reverse bridge; constructs JSON can't express are flagged in the report."""
    if isinstance(item, (Uint, Nint, Simple)):
        return JsonNumber(str(item.value))
    if isinstance(item, Bytes):
        return base64.urlsafe_b64encode(item.data).rstrip(b"=").decode("ascii")
    if isinstance(item, Text):
        return item.data
    if isinstance(item, Array):
        return [cbor_to_json(c, report) for c in item.items]
    if isinstance(item, Map):
        entries = []
        for key, value in item.entries:
            if isinstance(key, Text):
                k = key.data
            else:
                k = cbor.to_diagnostic(key)
                if report is not None:
                    report.append("non-text map key rendered as %s" % k)
            entries.append((k, cbor_to_json(value, report)))
        return JsonObject(entries)
    if isinstance(item, Tag):
        if report is not None:
            report.append("tag %d unwrapped" % item.number)
        return cbor_to_json(item.content, report)
    if isinstance(item, Bool):
        return item.value
    if isinstance(item, Null):
        return None
    if isinstance(item, Undefined):
        if report is not None:
            report.append("undefined became null")
        return None
    if isinstance(item, Float):
        if item.value != item.value or item.value in (float("inf"), float("-inf")):
            if report is not None:
                report.append("non-finite float became null")
            return None
        return JsonNumber(repr(item.value))
    raise JsonBridgeError("not a CBOR item: %r" % (item,))


def _entry_index(blob: Map, key: str) -> int:
    for i, (k, _) in enumerate(blob.entries):
        if isinstance(k, Text) and k.data == key:
            return i
    return -1


def _content_index(blob: Map) -> int:
    if not isinstance(blob, Map):
        raise MissingField("blob must be a map")
    content_i = _entry_index(blob, "content")
    if content_i < 0:
        raise MissingField("no 'content' entry")
    return content_i


def _replace_content(blob: Map, content_i: int, content: CborItem, drop_i: int = -1) -> Map:
    """``blob`` with new content and without the entry at ``drop_i``, if any."""
    return Map(
        [
            (k, content if i == content_i else v)
            for i, (k, v) in enumerate(blob.entries)
            if i != drop_i
        ]
    )


def blob_tag_base64(blob: Map) -> Map:
    """Mark base64 content with tag 34 and drop the redundant encoding entry."""
    content_i = _content_index(blob)
    encoding_i = _entry_index(blob, "encoding")
    if encoding_i < 0:
        raise MissingField("no 'encoding' entry")
    enc_value = blob.entries[encoding_i][1]
    if enc_value != Text("base64"):
        raise MissingField("'encoding' is not \"base64\"")
    content = blob.entries[content_i][1]
    if not isinstance(content, Text):
        raise MissingField("'content' is not a text string")
    return _replace_content(blob, content_i, Tag(BLOB_BASE64_TAG, content), encoding_i)


_B64_CLEAN = re.compile(rb"[\r\n]+")


def decode_base64(text: str) -> bytes:
    """Strict base64 decode that tolerates MIME line wrapping only."""
    raw = _B64_CLEAN.sub(b"", text.encode("ascii", errors="replace"))
    try:
        return base64.b64decode(raw, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise Base64Error(str(exc)) from exc


def blob_to_bstr(blob: Map) -> Map:
    """Decode base64 content to a byte string and drop the size entry."""
    content_i = _content_index(blob)
    content = blob.entries[content_i][1]
    if isinstance(content, Tag) and content.number == BLOB_BASE64_TAG:
        content = content.content
    if not isinstance(content, Text):
        raise MissingField("'content' is not base64 text")
    decoded = decode_base64(content.data)
    size_i = _entry_index(blob, "size")
    if size_i >= 0:
        size_value = blob.entries[size_i][1]
        if not isinstance(size_value, Uint) or size_value.value != len(decoded):
            raise SizeMismatch(
                "size entry %s != decoded length %d"
                % (cbor.to_diagnostic(size_value), len(decoded))
            )
    return _replace_content(blob, content_i, Bytes(decoded), size_i)


def blob_embed_cbor(
    blob: Map,
    float_mode: str = cbor.FLOAT_SMALLEST,
    report: list[str] | None = None,
) -> Map:
    """Re-encode JSON payloads as embedded CBOR (tag 24).

    Non-JSON payloads leave the map unchanged and are only reported.
    """
    content_i = _content_index(blob)
    content = blob.entries[content_i][1]
    if not isinstance(content, Bytes):
        raise MissingField("'content' is not a byte string")
    try:
        value = parse_json(content.data)
    except JsonSyntaxError as exc:
        if report is not None:
            report.append("content is not JSON (%s); left unchanged" % exc)
        return blob
    embedded = cbor.encode(json_to_cbor(value, float_mode, report))
    return _replace_content(blob, content_i, Tag(EMBEDDED_CBOR_TAG, Bytes(embedded)))
