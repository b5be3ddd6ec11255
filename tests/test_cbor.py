import dataclasses
import math
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_item, random_item, random_message
from cborkit.analysis import MODES, encode_in_mode
from cborkit.dnscbor import CodecContext, ROLE_QUERY, ROLE_RESPONSE
from cborkit.cbor import (
    Array,
    Bool,
    Bytes,
    CborError,
    CborItem,
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
    decode_sequence,
    encode,
    head,
    head_size,
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


_PREFERRED_WIDTHS = (8, 16, 32, 48, 64, 128)


@pytest.mark.parametrize(
    "value,smallest_width,preserve,smallest,double",
    [
        (1.5, 16, ("f93e00", "f93e00", "fa3fc00000") + ("fb3ff8000000000000",) * 3,
         "f93e00", "fb3ff8000000000000"),
        (100000.0, 32, ("fa47c35000",) * 3 + ("fb40f86a0000000000",) * 3,
         "fa47c35000", "fb40f86a0000000000"),
        (0.1, 64, ("fb3fb999999999999a",) * 6, "fb3fb999999999999a", "fb3fb999999999999a"),
        (-0.0, 16, ("f98000", "f98000", "fa80000000") + ("fb8000000000000000",) * 3,
         "f98000", "fb8000000000000000"),
        (math.inf, 16, ("f97c00", "f97c00", "fa7f800000") + ("fb7ff0000000000000",) * 3,
         "f97c00", "fb7ff0000000000000"),
        (math.nan, 16, ("f97e00",) * 6, "f97e00", "f97e00"),
    ],
    ids=["half", "single", "double", "neg-zero", "inf", "nan"],
)
def test_float_bytes_by_mode_and_preferred_width(value, smallest_width, preserve, smallest, double):
    # ``preserve`` holds one encoding per width in _PREFERRED_WIDTHS: the
    # narrowest exact width not below the preferred one, else 64 bits.
    assert smallest_float_width(value) == smallest_width
    for width, want in zip(_PREFERRED_WIDTHS, preserve, strict=True):
        item = Float(value, width)
        assert encode(item).hex() == want
        assert encode(item, SMALLEST).hex() == smallest
        assert encode(item, DOUBLE).hex() == double


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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**31), max_size=8))
def test_decode_sequence_is_each_item_in_turn(seeds):
    items = [random_item(random.Random(seed), 3) for seed in seeds]
    data = b"".join(encode(item) for item in items)
    assert decode_sequence(data) == [decode(encode(item))[0] for item in items]


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
        (bytes.fromhex("dfff"), ReservedIndicator),  # indefinite tag
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


# RFC 8949 Appendix A: every encoding, definite and indefinite lengths.
APPENDIX_A_HEX = """
00 01 0a 17 1818 1819 1864 1903e8 1a000f4240 1b000000e8d4a51000 1bffffffffffffffff
c249010000000000000000 3bffffffffffffffff c349010000000000000000 20 29 3863 3903e7
f90000 f98000 f93c00 fb3ff199999999999a f93e00 f97bff fa47c35000 fa7f7fffff
fb7e37e43c8800759c f90001 f90400 f9c400 fbc010666666666666 f97c00 f97e00 f9fc00
fa7f800000 fa7fc00000 faff800000 fb7ff0000000000000 fb7ff8000000000000
fbfff0000000000000 f4 f5 f6 f7 f0 f8ff c074323031332d30332d32315432303a30343a30305a
c11a514b67b0 c1fb41d452d9ec200000 d74401020304 d818456449455446
d82076687474703a2f2f7777772e6578616d706c652e636f6d 40 4401020304 60 6161 6449455446
62225c 62c3bc 63e6b0b4 64f0908591 80 83010203 8301820203820405
98190102030405060708090a0b0c0d0e0f101112131415161718181819 a0 a201020304
a26161016162820203 826161a161626163 a56161614161626142616361436164614461656145
5f42010243030405ff 7f657374726561646d696e67ff 9fff 9f018202039f0405ffff
9f01820203820405ff 83018202039f0405ff 83019f0203ff820405 bf61610161629f0203ffff
826161bf61626163ff bf6346756ef563416d7421ff
""".split()


def _dns_encodings(seed: int = 5, messages: int = 6) -> list[bytes]:
    rng = random.Random(seed)
    out = []
    for _ in range(messages):
        msg = random_message(rng)
        ctx = CodecContext(ROLE_RESPONSE if msg.is_response else ROLE_QUERY)
        out += [encode_in_mode(msg, ctx, mode).data for mode in MODES]
    return out


@pytest.mark.parametrize(
    "data",
    [bytes.fromhex(h) for h in APPENDIX_A_HEX] + _dns_encodings(),
    ids=lambda data: data.hex()[:24],
)
def test_every_proper_prefix_is_truncated(data):
    item, used = decode(data)
    assert used == len(data)
    for n in range(len(data)):
        with pytest.raises(Truncated):
            decode(data[:n])
    assert decode(data + b"\x00\xff") == (item, used)


def test_depth_limits():
    deep = Uint(1)
    for _ in range(200):
        deep = Array([deep])
    with pytest.raises(DepthExceeded):
        encode(deep)
    data = b"\x81" * 200 + b"\x01"
    with pytest.raises(DepthExceeded):
        decode(data)


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


@pytest.mark.parametrize("major", range(8))
@pytest.mark.parametrize(
    "argument",
    [-1, 0, 23, 24, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1, 2**64],
)
def test_head_size_is_head_length(major, argument):
    if 0 <= argument < 2**64:
        assert head_size(argument) == len(head(major, argument))
    else:
        with pytest.raises(CborError):
            head(major, argument)
        with pytest.raises(CborError):
            head_size(argument)


@pytest.mark.parametrize(
    "item",
    [Uint(2**64), Nint(2**64), Tag(2**64, Uint(0)), Uint(-1), Tag(-3, Uint(0))],
    ids=repr,
)
def test_item_size_raises_as_encode(item):
    with pytest.raises(CborError) as encoded:
        encode(item)
    with pytest.raises(CborError) as sized:
        item_size(item)
    assert type(sized.value) is type(encoded.value)


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



ITEM_SAMPLES = [
    Uint(7), Nint(3), Bytes(b"\x00"), Text("a"), Array([Uint(1)]), Map([(Text("k"), Null())]),
    Tag(1, Uint(2)), Simple(16), Bool(True), Null(), Undefined(), Float(1.5, 16),
]


def test_items_keep_their_semantics_with_slots():
    assert Float(0.0) != Float(-0.0)
    nan = Float(float("nan"))
    assert nan == Float(float("nan")) and hash(nan) == hash(Float(float("nan")))
    assert Float(1.0, 16) != Float(1.0, 32)
    assert {Float(0.0), Float(-0.0), Float(0.0)} == {Float(0.0), Float(-0.0)}
    assert hash(Text("a")) == hash(Text("a")) and Tag(1, Uint(2)) == Tag(1, Uint(2))
    assert {type(item) for item in ITEM_SAMPLES} == set(CborItem.__args__)
    for item in ITEM_SAMPLES:
        assert not hasattr(item, "__dict__")
        assert pickle.loads(pickle.dumps(item)) == item
        if type(item) not in (Array, Map):
            for f in dataclasses.fields(item):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(item, f.name, getattr(item, f.name))
        # No attribute outside the fields: AttributeError from the slots, or
        # on Python 3.11 a TypeError from the frozen __setattr__.
        with pytest.raises((AttributeError, TypeError)):
            item.extra = 1
