"""Tests for the benchmark's own checkers.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from checks import Malformed, Simple, Tagged, UNDEFINED, read_cbor  # noqa: E402

INF, NAN = float("inf"), float("nan")

# RFC 8949 Appendix A: every vector with definite lengths, as (value, hex).
# Vectors that need bignums are kept as the tagged byte strings they are.
APPENDIX_A = [
    (0, "00"), (1, "01"), (10, "0a"), (23, "17"), (24, "1818"), (25, "1819"),
    (100, "1864"), (1000, "1903e8"), (1000000, "1a000f4240"),
    (1000000000000, "1b000000e8d4a51000"),
    (18446744073709551615, "1bffffffffffffffff"),
    (Tagged(2, bytes.fromhex("010000000000000000")), "c249010000000000000000"),
    (-18446744073709551616, "3bffffffffffffffff"),
    (Tagged(3, bytes.fromhex("010000000000000000")), "c349010000000000000000"),
    (-1, "20"), (-10, "29"), (-100, "3863"), (-1000, "3903e7"),
    (0.0, "f90000"), (-0.0, "f98000"), (1.0, "f93c00"), (1.1, "fb3ff199999999999a"),
    (1.5, "f93e00"), (65504.0, "f97bff"), (100000.0, "fa47c35000"),
    (3.4028234663852886e38, "fa7f7fffff"), (1.0e300, "fb7e37e43c8800759c"),
    (5.960464477539063e-8, "f90001"), (0.00006103515625, "f90400"), (-4.0, "f9c400"),
    (-4.1, "fbc010666666666666"), (INF, "f97c00"), (NAN, "f97e00"), (-INF, "f9fc00"),
    (INF, "fa7f800000"), (NAN, "fa7fc00000"), (-INF, "faff800000"),
    (INF, "fb7ff0000000000000"), (NAN, "fb7ff8000000000000"), (-INF, "fbfff0000000000000"),
    (False, "f4"), (True, "f5"), (None, "f6"), (UNDEFINED, "f7"),
    (Simple(16), "f0"), (Simple(255), "f8ff"),
    (Tagged(0, "2013-03-21T20:04:00Z"), "c074323031332d30332d32315432303a30343a30305a"),
    (Tagged(1, 1363896240), "c11a514b67b0"),
    (Tagged(1, 1363896240.5), "c1fb41d452d9ec200000"),
    (Tagged(23, bytes.fromhex("01020304")), "d74401020304"),
    (Tagged(24, bytes.fromhex("6449455446")), "d818456449455446"),
    (Tagged(32, "http://www.example.com"), "d82076687474703a2f2f7777772e6578616d706c652e636f6d"),
    (b"", "40"), (bytes.fromhex("01020304"), "4401020304"),
    ("", "60"), ("a", "6161"), ("IETF", "6449455446"), ('"\\', "62225c"),
    ("ü", "62c3bc"), ("水", "63e6b0b4"), ("\U00010151", "64f0908591"),
    ([], "80"), ([1, 2, 3], "83010203"), ([1, [2, 3], [4, 5]], "8301820203820405"),
    (list(range(1, 26)), "98190102030405060708090a0b0c0d0e0f101112131415161718181819"),
    ({}, "a0"), ({1: 2, 3: 4}, "a201020304"), ({"a": 1, "b": [2, 3]}, "a26161016162820203"),
    (["a", {"b": "c"}], "826161a161626163"),
    ({"a": "A", "b": "B", "c": "C", "d": "D", "e": "E"}, "a56161614161626142616361436164614461656145"),
]

# Appendix A floats that are well-formed but not at their narrowest width.
WIDER_THAN_NEEDED = {"fa7f800000", "fa7fc00000", "faff800000",
                     "fb7ff0000000000000", "fb7ff8000000000000", "fbfff0000000000000"}

# Appendix A vectors that use indefinite lengths, which the program never emits.
INDEFINITE = [
    "5f42010243030405ff", "7f657374726561646d696e67ff", "9fff",
    "9f018202039f0405ffff", "9f01820203820405ff", "83018202039f0405ff",
    "83019f0203ff820405", "bf61610161629f0203ffff", "826161bf61626163ff",
    "bf6346756ef563416d7421ff",
]


def _same(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    if isinstance(a, float) and a == 0:
        return isinstance(b, float) and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(a, Tagged):
        return isinstance(b, Tagged) and a.number == b.number and _same(a.value, b.value)
    return checks.strict_equal(a, b) if isinstance(a, (list, dict)) else (type(a) is type(b) and a == b)


@pytest.mark.parametrize("value,hexdata", APPENDIX_A, ids=[h for _, h in APPENDIX_A])
def test_appendix_a_vectors_read_back(value, hexdata):
    data = bytes.fromhex(hexdata)
    assert _same(value, read_cbor(data, preferred_floats=False))
    if hexdata in WIDER_THAN_NEEDED:
        with pytest.raises(Malformed):
            read_cbor(data)
    else:
        assert _same(value, read_cbor(data))


@pytest.mark.parametrize("hexdata", INDEFINITE)
def test_indefinite_lengths_are_rejected(hexdata):
    with pytest.raises(Malformed):
        read_cbor(bytes.fromhex(hexdata))


@pytest.mark.parametrize("hexdata", [
    "1817",          # 23 in a one-byte argument
    "190017",        # 23 in a two-byte argument
    "1900ff",        # 255 in a two-byte argument
    "1a0000ffff",    # 65535 in a four-byte argument
    "1b00000000ffffffff",  # 2**32 - 1 in an eight-byte argument
    "5801ff",        # one-byte string length below 24
    "980100",        # one-element array with a one-byte count
    "d80101",        # tag 1 with a one-byte argument
    "f818",          # two-byte simple value below 32
    "1c", "1d", "1e",  # reserved additional information
    "",              # nothing
    "0000",          # two items
    "19",            # truncated argument
    "62c3",          # truncated text
    "61ff",          # text that is not UTF-8
    "a2616101616102",  # repeated map key
])
def test_malformed_or_non_shortest_items_are_rejected(hexdata):
    with pytest.raises(Malformed):
        read_cbor(bytes.fromhex(hexdata))


def test_count_tags():
    value = read_cbor(bytes.fromhex("8363777777c700d88c01"))  # ["www", 7(0), 140(1)]
    assert value == ["www", Tagged(7, 0), Tagged(140, 1)]
    assert checks.count_tags(value, 7) == 1
    assert checks.count_tags([value, {"k": Tagged(7, value)}], 7) == 3


def _name(text: str) -> tuple:
    return tuple(label.encode() for label in text.split(".")) if text else ()


def test_uncompressed_length_of_a_query():
    # header 12 + www(4) example(8) com(4) root(1) + type and class 4
    query = corpus.Msg(0x1234, 0x0100, _name("www.example.com"), corpus.A)
    assert corpus.uncompressed_length(query) == 12 + 17 + 4 == 33


def test_uncompressed_length_of_a_response():
    owner = _name("www.example.com")
    response = corpus.Msg(0x1234, 0x8180, owner, corpus.A, answers=[
        corpus.Rec(owner, corpus.CNAME, corpus.IN, 300, (_name("cdn.example.net"),)),
        corpus.Rec(_name("cdn.example.net"), corpus.A, corpus.IN, 60, bytes(4)),
    ], authority=[
        corpus.Rec(_name("example.net"), corpus.SOA, corpus.IN, 3600,
                   (_name("ns1.example.net"), _name("hostmaster.example.net"), 1, 2, 3, 4, 5)),
    ], additional=[
        corpus.Rec((), corpus.OPT, 1232, 0, b""),
        corpus.Rec(_name("example.net"), corpus.MX, corpus.IN, 60, (10, _name("mx.example.net"))),
        corpus.Rec(_name("_sip._udp.example.net"), corpus.SRV, corpus.IN, 60,
                   (1, 2, 5060, _name("sip.example.net"))),
    ])
    question = 12 + 17 + 4
    cname = 17 + 10 + 17          # owner, fixed fields, target cdn.example.net
    a = 17 + 10 + 4
    soa = 13 + 10 + (17 + 24 + 20)  # ns1.example.net, hostmaster.example.net, five counters
    opt = 1 + 10 + 0
    mx = 13 + 10 + (2 + 16)
    srv = 23 + 10 + (6 + 17)
    assert corpus.uncompressed_length(response) == question + cname + a + soa + opt + mx + srv == 300


def test_uncompressed_length_matches_the_uncompressed_writer():
    for batch in corpus.small_corpus(7, batches=2, exchanges=20) + corpus.large_corpus(7, rounds=1):
        for msg in batch:
            assert len(corpus.to_wire(msg, compress=False)) == corpus.uncompressed_length(msg)
            assert len(corpus.to_wire(msg)) <= corpus.uncompressed_length(msg)


def test_parse_rdata_reads_what_the_writer_wrote():
    for batch in corpus.large_corpus(3, rounds=1):
        for msg in batch:
            for rec in msg.records():
                w = corpus._Writer(compress=False)
                w.rdata(rec)
                assert checks.parse_rdata(rec.rtype, bytes(w.out[2:])) == rec.rdata


def test_corpora_depend_only_on_the_seed():
    assert corpus.small_corpus(5, 2, 10) == corpus.small_corpus(5, 2, 10)
    assert corpus.small_corpus(5, 2, 10) != corpus.small_corpus(6, 2, 10)
    assert corpus.json_corpus(5, 1, 1) == corpus.json_corpus(5, 1, 1)
    assert corpus.large_corpus(5, 1) == corpus.large_corpus(5, 1)
