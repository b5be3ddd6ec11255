"""Checkers that share no code with the program under test.

``read_cbor`` is an RFC 8949 reader that accepts only what the program
promises to emit: exactly one item, definite lengths, shortest-form
argument heads and (optionally) floats at their narrowest exact width.
``parse_rdata`` reads the uncompressed rdata of the name-bearing DNS
record types.  ``msg_matches`` compares a decoded message with the
generated one the way DNS does: names case-insensitively, name-bearing
rdata after expansion.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import corpus


class Malformed(Exception):
    pass


class Tagged(NamedTuple):
    number: int
    value: object


class Simple(NamedTuple):
    value: int


class _Undefined:
    def __repr__(self) -> str:
        return "undefined"


UNDEFINED = _Undefined()

_ARG_WIDTH = {24: 1, 25: 2, 26: 4, 27: 8}
_SHORTEST_LIMIT = {1: 24, 2: 0x100, 4: 0x10000, 8: 0x100000000}


def read_cbor(data: bytes, preferred_floats: bool = True):
    """Decode one well-formed item that fills ``data`` exactly.

    Maps become dicts (a repeated key is an error), arrays lists, tags
    ``Tagged``, simple values other than false/true/null/undefined
    ``Simple``.  Raises ``Malformed`` on anything else.
    """
    value, end = _item(memoryview(data), 0, preferred_floats, 0)
    if end != len(data):
        raise Malformed("%d trailing bytes" % (len(data) - end))
    return value


def _argument(data, pos: int):
    if pos >= len(data):
        raise Malformed("truncated head at %d" % pos)
    initial = data[pos]
    major, info = initial >> 5, initial & 0x1F
    if info < 24:
        return major, info, info, pos + 1
    width = _ARG_WIDTH.get(info)
    if width is None:
        kind = "indefinite length" if info == 31 else "reserved additional info"
        raise Malformed("%s %d at %d" % (kind, info, pos))
    if pos + 1 + width > len(data):
        raise Malformed("truncated argument at %d" % pos)
    arg = int.from_bytes(data[pos + 1 : pos + 1 + width], "big")
    if major != 7 and arg < _SHORTEST_LIMIT[width]:
        raise Malformed("argument %d not in shortest form at %d" % (arg, pos))
    return major, info, arg, pos + 1 + width


def _narrower_float_fits(value: float, width: int) -> bool:
    if math.isnan(value):
        return width > 2
    for fmt, w in ((">e", 2), (">f", 4)):
        if w >= width:
            break
        try:
            narrow = struct.unpack(fmt, struct.pack(fmt, value))[0]
        except OverflowError:
            continue
        if struct.pack(">d", narrow) == struct.pack(">d", value):
            return True
    return False


def _item(data, pos: int, preferred_floats: bool, depth: int):
    if depth > 500:
        raise Malformed("nesting deeper than 500")
    major, info, arg, pos = _argument(data, pos)
    if major == 0:
        return arg, pos
    if major == 1:
        return -1 - arg, pos
    if major in (2, 3):
        end = pos + arg
        if end > len(data):
            raise Malformed("string runs past the end")
        raw = bytes(data[pos:end])
        if major == 2:
            return raw, end
        try:
            return raw.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise Malformed("text string is not UTF-8: %s" % exc) from exc
    if major == 4:
        items = []
        for _ in range(arg):
            value, pos = _item(data, pos, preferred_floats, depth + 1)
            items.append(value)
        return items, pos
    if major == 5:
        out = {}
        for _ in range(arg):
            key, pos = _item(data, pos, preferred_floats, depth + 1)
            value, pos = _item(data, pos, preferred_floats, depth + 1)
            try:
                if key in out:
                    raise Malformed("repeated map key %r" % (key,))
                out[key] = value
            except TypeError as exc:
                raise Malformed("unhashable map key %r" % (key,)) from exc
        return out, pos
    if major == 6:
        value, pos = _item(data, pos, preferred_floats, depth + 1)
        return Tagged(arg, value), pos
    if info < 20:
        return Simple(info), pos
    if info in (20, 21, 22, 23):
        return (False, True, None, UNDEFINED)[info - 20], pos
    if info == 24:
        if arg < 32:
            raise Malformed("two-byte simple value %d below 32" % arg)
        return Simple(arg), pos
    width = _ARG_WIDTH[info]
    fmt = {2: ">e", 4: ">f", 8: ">d"}[width]
    value = struct.unpack(fmt, arg.to_bytes(width, "big"))[0]
    if preferred_floats and _narrower_float_fits(value, width):
        raise Malformed("float %r not at its narrowest width" % value)
    return value, pos


def count_tags(value, number: int) -> int:
    if isinstance(value, Tagged):
        return (value.number == number) + count_tags(value.value, number)
    if isinstance(value, list):
        return sum(count_tags(v, number) for v in value)
    if isinstance(value, dict):
        return sum(count_tags(k, number) + count_tags(v, number) for k, v in value.items())
    return 0


def strict_equal(a, b) -> bool:
    """Equality that keeps bool, int and float apart, and key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(strict_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(strict_equal(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def has_nested_container(value) -> bool:
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return any(isinstance(c, (dict, list)) for c in children)


# --- DNS --------------------------------------------------------------------


def _read_name(rdata: bytes, pos: int):
    labels = []
    while True:
        if pos >= len(rdata):
            raise Malformed("name runs past rdata")
        n = rdata[pos]
        if n == 0:
            return tuple(labels), pos + 1
        if n > 63:
            raise Malformed("compression pointer or bad label in expanded rdata")
        labels.append(rdata[pos + 1 : pos + 1 + n])
        pos += 1 + n


def parse_rdata(rtype: int, rdata: bytes):
    """Uncompressed wire rdata -> the structured form ``corpus.Rec`` uses."""
    if rtype in corpus.NAME_TYPES:
        name, end = _read_name(rdata, 0)
        fields = (name,)
    elif rtype == corpus.MX:
        name, end = _read_name(rdata, 2)
        fields = (struct.unpack(">H", rdata[:2])[0], name)
    elif rtype == corpus.SRV:
        name, end = _read_name(rdata, 6)
        fields = struct.unpack(">HHH", rdata[:6]) + (name,)
    elif rtype == corpus.SOA:
        mname, pos = _read_name(rdata, 0)
        rname, pos = _read_name(rdata, pos)
        end = pos + 20
        fields = (mname, rname) + struct.unpack(">IIIII", rdata[pos:end])
    else:
        return rdata
    if end != len(rdata):
        raise Malformed("trailing bytes in type %d rdata" % rtype)
    return fields


def _fold(value):
    if isinstance(value, tuple):
        return tuple(_fold(v) for v in value)
    if isinstance(value, bytes):
        return value.lower()
    return value


def _name_key(labels) -> tuple:
    return tuple(label.lower() for label in labels)


def _record_matches(got, want: corpus.Rec) -> bool:
    if (got.rtype, got.rclass, got.ttl) != (want.rtype, want.rclass, want.ttl):
        return False
    if _name_key(got.name.labels) != _name_key(want.name):
        return False
    if isinstance(want.rdata, bytes):
        return got.rdata == want.rdata
    # Structured rdata: names compare case-insensitively, numbers exactly.
    try:
        return _fold(parse_rdata(got.rtype, got.rdata)) == _fold(want.rdata)
    except (Malformed, struct.error):
        return False


def msg_matches(got, want: corpus.Msg) -> str | None:
    """None when the program's ``DnsMessage`` is DNS-equal to ``want``,
    else a description of the first difference."""
    if got.flags != want.flags:
        return "flags %#x != %#x" % (got.flags, want.flags)
    if len(got.questions) != 1:
        return "%d questions" % len(got.questions)
    q = got.questions[0]
    if (_name_key(q.name.labels), q.rtype, q.rclass) != (_name_key(want.qname), want.qtype, want.qclass):
        return "question differs"
    for label, g, w in (
        ("answer", got.answers, want.answers),
        ("authority", got.authority, want.authority),
        ("additional", got.additional, want.additional),
    ):
        if len(g) != len(w):
            return "%s count %d != %d" % (label, len(g), len(w))
        for i, (gr, wr) in enumerate(zip(g, w)):
            if not _record_matches(gr, wr):
                return "%s record %d differs" % (label, i)
    return None
