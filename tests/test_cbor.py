import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_item
from cborkit.cbor import (
    Array,
    Bool,
    Bytes,
    DecodeOptions,
    DepthExceeded,
    EncodeOptions,
    Float,
    InvalidSimple,
    InvalidUtf8,
    MalformedIndefinite,
    Map,
    Nint,
    Null,
    ReservedIndicator,
    Simple,
    Tag,
    Text,
    Truncated,
    Uint,
    Undefined,
    decode,
    encode,
    int_item,
    item_size,
    smallest_float_width,
    to_diagnostic,
)

SMALLEST = EncodeOptions(float_mode="smallest")
DOUBLE = EncodeOptions(float_mode="force_double")


@pytest.mark.parametrize(
    "item,opts,expected",
    [
        (Uint(12), None, "0c"),
        (Text("Hello!"), None, "6648656c6c6f21"),
        (Float(5.5), DOUBLE, "fb4016000000000000"),
        (Float(5.5), SMALLEST, "f94580"),
        (Float(5.428494284942873e-06), DOUBLE, "fb3ed6c4cd259b6807"),
        (Uint(0), None, "00"),
        (Nint(0), None, "20"),
        (Bool(True), None, "f5"),
        (Bool(False), None, "f4"),
        (Null(), None, "f6"),
        (Undefined(), None, "f7"),
        (Uint(23), None, "17"),
        (Uint(24), None, "1818"),
        (Uint(255), None, "18ff"),
        (Uint(256), None, "190100"),
        (Uint(65535), None, "19ffff"),
        (Uint(65536), None, "1a00010000"),
        (Uint(2**32 - 1), None, "1affffffff"),
        (Uint(2**32), None, "1b0000000100000000"),
        (Uint(2**64 - 1), None, "1bffffffffffffffff"),
        (Nint(499), None, "3901f3"),
        (Bytes(b""), None, "40"),
        (Text(""), None, "60"),
        (Array([]), None, "80"),
        (Map([]), None, "a0"),
        (Simple(16), None, "f0"),
        (Simple(255), None, "f8ff"),
        (Tag(34, Text("aGk=")), None, "d8226461476b3d"),
        (Map([(Text("a"), Uint(1))]), None, "a1616101"),
    ],
)
def test_encode_goldens(item, opts, expected):
    assert encode(item, opts or EncodeOptions()).hex() == expected


def test_nan_canonicalized_in_all_modes():
    for opts in (EncodeOptions(), SMALLEST, DOUBLE):
        assert encode(Float(float("nan")), opts).hex() == "f97e00"
    assert encode(Float(struct.unpack(">d", bytes.fromhex("7ff800000000beef"))[0])).hex() == "f97e00"


def test_infinities_smallest():
    assert encode(Float(math.inf), SMALLEST).hex() == "f97c00"
    assert encode(Float(-math.inf), SMALLEST).hex() == "f9fc00"


def test_decode_goldens():
    assert decode(bytes.fromhex("0c")) == (Uint(12), 1)
    item, used = decode(bytes.fromhex("3901f3"))
    assert item == Nint(499) and item.value == -500 and used == 3
    # indefinite byte string normalizes to one definite chunk
    item, used = decode(bytes.fromhex("5f4201024103ff"))
    assert item == Bytes(bytes.fromhex("010203")) and used == 7
    item, _ = decode(bytes.fromhex("7f62616260ff"))
    assert item == Text("ab")
    item, _ = decode(bytes.fromhex("9f0102ff"))
    assert item == Array([Uint(1), Uint(2)])
    item, _ = decode(bytes.fromhex("bf616101ff"))
    assert item == Map([(Text("a"), Uint(1))])


def test_decode_returns_consumed_for_sequences():
    data = bytes.fromhex("0c") + bytes.fromhex("6648656c6c6f21")
    item, used = decode(data)
    assert item == Uint(12) and used == 1
    item, used = decode(data[used:])
    assert item == Text("Hello!") and used == 7


def test_float_decode_widths():
    assert decode(bytes.fromhex("f94580"))[0] == Float(5.5, 16)
    assert decode(bytes.fromhex("fa40b00000"))[0] == Float(5.5, 32)
    assert decode(bytes.fromhex("fb4016000000000000"))[0] == Float(5.5, 64)


@pytest.mark.parametrize(
    "data,error",
    [
        (b"", Truncated),
        (bytes.fromhex("19ff"), Truncated),
        (bytes.fromhex("62ff"), Truncated),
        (bytes.fromhex("1c"), ReservedIndicator),
        (bytes.fromhex("1d"), ReservedIndicator),
        (bytes.fromhex("1e"), ReservedIndicator),
        (bytes.fromhex("3f"), ReservedIndicator),  # indefinite nint
        (bytes.fromhex("ff"), MalformedIndefinite),  # stray break
        (bytes.fromhex("5f610100ff"), MalformedIndefinite),  # text chunk in bytes
        (bytes.fromhex("5f5f4101ffff"), MalformedIndefinite),  # nested indefinite
        (bytes.fromhex("bf6161ff"), MalformedIndefinite),  # break splits a map pair
        (bytes.fromhex("f800"), InvalidSimple),
        (bytes.fromhex("f81f"), InvalidSimple),
        (bytes.fromhex("62c328"), InvalidUtf8),
    ],
)
def test_decode_errors(data, error):
    with pytest.raises(error):
        decode(data)


def test_break_between_map_pairs_is_valid():
    item, _ = decode(bytes.fromhex("bf616100ff"))
    assert item == Map([(Text("a"), Uint(0))])


def test_reserved_indicators_all_majors():
    for major in range(8):
        for indicator in (28, 29, 30):
            with pytest.raises(ReservedIndicator):
                decode(bytes([(major << 5) | indicator, 0]))


def test_indefinite_rejected_when_disabled():
    opts = DecodeOptions(accept_indefinite=False)
    with pytest.raises(MalformedIndefinite):
        decode(bytes.fromhex("9f01ff"), opts)


def test_depth_limits():
    deep = Uint(1)
    for _ in range(200):
        deep = Array([deep])
    with pytest.raises(DepthExceeded):
        encode(deep)
    data = b"\x81" * 200 + b"\x01"
    with pytest.raises(DepthExceeded):
        decode(data)
    assert decode(data, DecodeOptions(max_depth=300))[0] is not None


def test_invalid_simple_encode():
    for v in (20, 21, 23, 31):
        with pytest.raises(InvalidSimple):
            encode(Simple(v))
    with pytest.raises(InvalidSimple):
        encode(Simple(256))


def test_int_item_helper():
    assert int_item(12) == Uint(12)
    assert int_item(-500) == Nint(499)
    assert int_item(-1) == Nint(0)


def test_shortest_form_boundaries():
    # head length thresholds: 23/255/65535/2**32-1
    for n, length in [(0, 1), (23, 1), (24, 2), (255, 2), (256, 3), (65535, 3),
                      (65536, 5), (2**32 - 1, 5), (2**32, 9), (2**64 - 1, 9)]:
        assert len(encode(Uint(n))) == length
        assert len(encode(Nint(n))) == length


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_shortest_form_property(n):
    head = encode(Uint(n))
    if n <= 23:
        assert len(head) == 1
    elif n <= 255:
        assert len(head) == 2
    elif n <= 65535:
        assert len(head) == 3
    elif n <= 2**32 - 1:
        assert len(head) == 5
    else:
        assert len(head) == 9


@settings(max_examples=300, deadline=None)
@given(st.integers())
def test_random_item_round_trip(seed):
    rng = random.Random(seed)
    item = random_item(rng, depth=8)
    blob = encode(item)
    decoded, used = decode(blob)
    assert used == len(blob)
    assert decoded == item
    assert item_size(item) == len(blob)


@settings(max_examples=200, deadline=None)
@given(st.integers())
def test_canonical_idempotence(seed):
    rng = random.Random(seed)
    item = random_item(rng, depth=6)
    first = encode(decode(encode(item, SMALLEST))[0], SMALLEST)
    second = encode(decode(first)[0], SMALLEST)
    assert first == second


@given(st.floats(allow_nan=False))
def test_smallest_float_exactness(value):
    blob = encode(Float(value), SMALLEST)
    decoded, _ = decode(blob)
    assert struct.pack(">d", decoded.value) == struct.pack(">d", value)
    assert decoded.preferred_width == smallest_float_width(value)


@settings(max_examples=500, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_fuzz_decode_never_overreads(data):
    try:
        item, used = decode(data)
    except Exception as exc:  # noqa: BLE001 - the contract is the error taxonomy
        from cborkit.cbor import CborError

        assert isinstance(exc, CborError)
    else:
        assert 0 < used <= len(data)
        assert encode(item) is not None


def test_diagnostics():
    assert to_diagnostic(Bytes(bytes.fromhex("c6336423"))) == "h'c6336423'"
    assert to_diagnostic(Uint(0)) == "0"
    assert to_diagnostic(Tag(34, Text("aGk="))) == '34("aGk=")'
    assert to_diagnostic(Nint(499)) == "-500"
    assert to_diagnostic(Array([Uint(1), Text("x")])) == '[1, "x"]'
    assert to_diagnostic(Map([(Text("a"), Bool(True)), (Uint(2), Null())])) == '{"a": true, 2: null}'
    assert to_diagnostic(Float(5.5)) == "5.5"
    assert to_diagnostic(Float(math.inf)) == "Infinity"
    assert to_diagnostic(Float(float("nan"))) == "NaN"
    assert to_diagnostic(Simple(19)) == "simple(19)"
    assert to_diagnostic(Undefined()) == "undefined"

