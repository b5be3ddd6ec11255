"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they happen.
"""

import base64
import random
import struct
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import random_item, random_message
from cborkit import cbor, dnspacked
from cborkit.cbor import Array, Bytes, EncodeOptions, Float, Map, Tag, Text, Uint
from cborkit.cli import run as cli_run
from cborkit.dnscbor import (
    CodecContext,
    ComponentRef,
    ROLE_QUERY,
    ROLE_RESPONSE,
    decode_message,
    encode_message,
)
from cborkit.dnswire import (
    CLASS_IN,
    DnsMessage,
    Name,
    Question,
    ResourceRecord,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    decode_wire,
    encode_wire,
    name_rdata,
)
from cborkit.analysis import (
    common_suffix_bytes,
    common_suffix_components,
    compare_modes,
)
from cborkit.jsonbridge import blob_tag_base64, blob_to_bstr
from cborkit.taxonomy import classify, size_tier

DATA = Path(__file__).parent / "data"

SMALLEST = EncodeOptions(float_mode="smallest")
DOUBLE = EncodeOptions(float_mode="force_double")


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE C%02d %s: FAIL" % (number, label))
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, "criterion %d took %.2fs (budget %.0fs)" % (
            number, elapsed, budget_s,
        )
    print("ACCEPTANCE C%02d %s: PASS (%.2fs)" % (number, label, elapsed))


def test_c01_golden_cbor_bytes():
    with criterion(1, "golden CBOR bytes", 1.0):
        assert cbor.encode(Uint(12)).hex() == "0c"
        assert cbor.encode(Text("Hello!")).hex() == "6648656c6c6f21"
        assert cbor.encode(Float(5.5), DOUBLE).hex() == "fb4016000000000000"
        assert cbor.encode(Float(5.5), SMALLEST).hex() == "f94580"
        assert (
            cbor.encode(Float(5.428494284942873e-06), DOUBLE).hex()
            == "fb3ed6c4cd259b6807"
        )


def test_c02_round_trip_property_10k():
    with criterion(2, "10k random item round-trips", 30.0):
        rng = random.Random(0xC02)
        for _ in range(10_000):
            # at least one composite level so the depth budget gets used
            item = Array([random_item(rng, depth=7) for _ in range(rng.randrange(1, 4))])
            blob = cbor.encode(item)
            decoded, used = cbor.decode(blob)
            assert used == len(blob)
            assert decoded == item
            # canonical idempotence under the smallest float policy
            first = cbor.encode(cbor.decode(cbor.encode(item, SMALLEST))[0], SMALLEST)
            second = cbor.encode(cbor.decode(first)[0], SMALLEST)
            assert first == second


def test_c03_blob_transform_deltas():
    with criterion(3, "blob transform deltas", 5.0):
        # tag34 saves exactly 14 bytes (-16 for the entry, +2 for the tag)
        blob = Map(
            [
                (Text("sha"), Text("89e6c98d92887913cadf06b2adb97f26cde4849b")),
                (Text("node_id"), Text("Q0pGRg==")),
                (Text("content"), Text("aGVsbG8K")),
                (Text("encoding"), Text("base64")),
                (Text("size"), Uint(6)),
            ]
        )
        tagged = blob_tag_base64(blob)
        assert cbor.item_size(blob) - cbor.item_size(tagged) == 14
        # bstr gain over simple CBOR for a 100 kB random payload
        payload = random.Random(0xC03).randbytes(100_000)
        big = Map(
            [
                (Text("sha"), Text("89e6c98d92887913cadf06b2adb97f26cde4849b")),
                (Text("content"), Text(base64.encodebytes(payload).decode())),
                (Text("encoding"), Text("base64")),
                (Text("size"), Uint(len(payload))),
            ]
        )
        simple_size = cbor.item_size(big)
        bstr_size = cbor.item_size(blob_to_bstr(blob_tag_base64(big)))
        gain = (simple_size - bstr_size) / simple_size
        assert 0.22 <= gain <= 0.28, gain


def test_c04_classic_wire_fidelity():
    with criterion(4, "classic wire fidelity (www.example.cz)", 1.0):
        query_wire = (
            struct.pack(">HHHHHH", 0x1234, 0x0100, 1, 0, 0, 0)
            + b"\x03www\x07example\x02cz\x00"
            + struct.pack(">HH", 1, 1)
        )
        query = decode_wire(query_wire)
        assert query.questions[0].name.to_text() == "www.example.cz"
        assert encode_wire(query) == query_wire
        response = DnsMessage(
            0x1234,
            0x8180,
            [Question(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN)],
            answers=[
                ResourceRecord(
                    Name.from_text("www.example.cz"), TYPE_A, CLASS_IN, 300,
                    bytes([192, 0, 2, 7]),
                )
            ],
        )
        wire = encode_wire(response, compress=True)
        assert b"\xc0\x0c" in wire  # pointer to the question name at offset 12
        assert decode_wire(wire) == response


def cname_referral_response() -> DnsMessage:
    return DnsMessage(
        0,
        0x8180,
        [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(
                Name.from_text("www.example.org"), TYPE_CNAME, CLASS_IN, 3218,
                name_rdata("example.org"),
            )
        ],
        additional=[
            ResourceRecord(
                Name.from_text("example.org"), TYPE_A, CLASS_IN, 3218,
                bytes.fromhex("c6336423"),
            )
        ],
    )


def test_c05_component_referencing_conformance():
    with criterion(5, "component referencing structure and bytes", 1.0):
        ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
        encoded = encode_message(cname_referral_response(), ctx)
        t = ctx.mode.tag
        assert encoded.item == Array(
            [
                Array([Text("www"), Text("example"), Text("org"), Uint(1)]),
                Array([Array([Tag(t, Uint(0)), Uint(3218), Uint(5), Tag(t, Uint(1))])]),
                Array(
                    [Array([Tag(t, Uint(1)), Uint(3218), Uint(1),
                            Bytes(bytes.fromhex("c6336423"))])]
                ),
            ]
        )
        golden = bytes.fromhex((DATA / "cname_referral_compref10.hex").read_text().strip())
        assert encoded.data == golden
        assert decode_message(golden, ctx) == cname_referral_response()


def test_c06_elision_rules():
    with criterion(6, "question elision rules", 5.0):
        msg = cname_referral_response()
        request = Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)
        ctx = CodecContext(role=ROLE_RESPONSE, request_question=request)
        encoded = encode_message(msg, ctx)
        assert encoded.question_elided
        assert all(isinstance(e, Array) for e in encoded.item.items)
        assert decode_message(encoded.data, ctx) == msg
        # AAAA/IN question encodes as a one-element array
        aaaa = DnsMessage(0, 0x0100,
                          [Question(Name.from_text("example.org"), TYPE_AAAA, CLASS_IN)])
        item = encode_message(aaaa, CodecContext(role=ROLE_QUERY)).item
        assert item.items[0].items == [Text("example.org")]
        # class != IN forces both type and class
        chaos = DnsMessage(0, 0x0100,
                           [Question(Name.from_text("example.org"), TYPE_AAAA, 3)])
        item = encode_message(chaos, CodecContext(role=ROLE_QUERY)).item
        assert item.items[0].items == [Text("example.org"), Uint(28), Uint(3)]
        # property over randomized questions
        rng = random.Random(0xC06)
        for _ in range(500):
            labels = tuple(
                "".join(rng.choice("abcxyz") for _ in range(rng.randrange(1, 8))).encode()
                for _ in range(rng.randrange(1, 4))
            )
            question = Question(
                Name(labels),
                rng.choice((TYPE_A, TYPE_AAAA, 16, 257)),
                rng.choice((CLASS_IN, CLASS_IN, CLASS_IN, 3)),
            )
            query = DnsMessage(0, 0x0100, [question])
            ctx = CodecContext(role=ROLE_QUERY)
            item = encode_message(query, ctx).item
            fields = item.items[0].items
            if question.rclass != CLASS_IN:
                assert fields[-2:] == [Uint(question.rtype), Uint(question.rclass)]
            elif question.rtype != TYPE_AAAA:
                assert fields[-1] == Uint(question.rtype)
            else:
                assert isinstance(fields[-1], Text)
            assert decode_message(encode_message(query, ctx).data, ctx) == query
            # responses elide the question only under a matching request
            response = DnsMessage(0, 0x8180, [question],
                                  answers=[ResourceRecord(
                                      Name(labels), TYPE_A, CLASS_IN, 60, bytes(4))])
            rctx = CodecContext(role=ROLE_RESPONSE, request_question=question)
            encoded = encode_message(response, rctx)
            assert encoded.question_elided
            assert decode_message(encoded.data, rctx) == response


def test_c07_mdns_query_answers():
    with criterion(7, "query answer handling", 5.0):
        msg = DnsMessage(
            0, 0x0000,
            [Question(Name.from_text("_http._tcp.local"), 12, CLASS_IN)],
            answers=[
                ResourceRecord(Name.from_text("printer._http._tcp.local"), 12,
                               CLASS_IN, 120, name_rdata("printer.local")),
                ResourceRecord(Name.from_text("scanner._http._tcp.local"), 12,
                               CLASS_IN, 120, name_rdata("scanner.local")),
            ],
        )
        ctx = CodecContext(role=ROLE_QUERY)
        encoded = encode_message(msg, ctx)
        assert encoded.dropped_answers == 2
        assert decode_message(encoded.data, ctx).answers == []
        ctx_ka = CodecContext(role=ROLE_QUERY, allow_query_answers=True)
        encoded_ka = encode_message(msg, ctx_ka)
        assert encoded_ka.dropped_answers == 0
        assert decode_message(encoded_ka.data, ctx_ka) == msg


def _crafted_shared_suffix_response(owners: int) -> DnsMessage:
    answers = [
        ResourceRecord(
            Name.from_text("host%02d.example.org" % i), TYPE_A, CLASS_IN, 3218,
            struct.pack(">I", 0xC6336400 + i),
        )
        for i in range(owners)
    ]
    return DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)],
        answers=answers,
    )


def _oracle_sizes_shared_suffix(owners: int) -> tuple[int, int]:
    """Independent arithmetic for the crafted message: (none, compref10)."""
    question = 1 + (1 + 15) + 1          # array head + text + type
    outer = 1
    section = 2                          # array head for 24..255 entries
    rr_none = 1 + (1 + 18) + 3 + 1 + 5   # array + name text + ttl + type + rdata
    none_size = outer + question + section + owners * rr_none
    question_ref = 1 + (1 + 3) + (1 + 7) + (1 + 3) + 1   # spliced components
    rr_ref = 1 + (1 + 6) + 2 + 3 + 1 + 5  # literal "hostNN" + 2-byte reference
    ref_size = outer + question_ref + section + owners * rr_ref
    return none_size, ref_size


def test_c08_compression_orderings():
    with criterion(8, "compression orderings", 120.0):
        rng = random.Random(0xC08)
        for _ in range(1000):
            msg = random_message(rng)
            role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
            plain = encode_message(msg, CodecContext(role=role))
            ref10 = encode_message(
                msg, CodecContext(role=role, mode=ComponentRef.one_plus_zero())
            )
            ref11 = encode_message(
                msg, CodecContext(role=role, mode=ComponentRef.one_plus_one())
            )
            assert len(ref10.data) <= len(ref11.data)
            lite = dnspacked.pack(plain.item, dnspacked.PACKED_LITE)
            full = dnspacked.pack(plain.item, dnspacked.PACKED_FULL)
            assert len(full.encode()) <= len(lite.encode())
        # crafted response: 50 owners under one suffix
        msg = _crafted_shared_suffix_response(50)
        none_size = len(encode_message(msg, CodecContext(role=ROLE_RESPONSE)).data)
        ref_size = len(
            encode_message(
                msg, CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
            ).data
        )
        oracle_none, oracle_ref = _oracle_sizes_shared_suffix(50)
        assert none_size == oracle_none
        assert ref_size == oracle_ref
        assert none_size - ref_size >= 400
        # crafted response repeating one 13-byte suffix 301 times: the plain
        # CBORform loses against the pointer-compressed classic wire
        answers = [
            ResourceRecord(Name.from_text("h%03d.intranet.com" % i), TYPE_A,
                           CLASS_IN, 3218, struct.pack(">I", i))
            for i in range(301)
        ]
        redundant = DnsMessage(
            0, 0x8180,
            [Question(Name.from_text("www.intranet.com"), TYPE_A, CLASS_IN)],
            answers=answers,
        )
        assert compare_modes(redundant).savings("unpacked").savings_b < 0


def test_c09_packed_round_trip_and_penalty():
    with criterion(9, "packed round-trip and empty-table penalty", 30.0):
        rng = random.Random(0xC09)
        checked = 0
        while checked < 300:
            item = random_item(rng, 6)
            try:
                env = dnspacked.pack(item, dnspacked.PACKED_FULL)
            except dnspacked.AlreadyPacked:
                continue
            checked += 1
            assert dnspacked.unpack(env) == item
            assert dnspacked.unpack(dnspacked.pack(item, dnspacked.PACKED_LITE)) == item
        # zero redundancy costs exactly the envelope's four bytes
        unique = Array([Uint(n) for n in range(24, 40)])
        env = dnspacked.pack(unique, dnspacked.PACKED_FULL)
        assert env.table == []
        assert len(env.encode()) == cbor.item_size(unique) + 4


def test_c10_suffix_analysis():
    with criterion(10, "pairwise suffix analysis", 1.0):
        a = Name.from_text("service.example.com")
        b = Name.from_text("we-sell-ice.example.com")
        assert common_suffix_bytes(a, b) == 15
        labels, joined = common_suffix_components(a, b)
        assert labels == 2 and joined == len("example.com")


def test_c11_taxonomy_boundaries():
    with criterion(11, "taxonomy boundaries", 1.0):
        assert [size_tier(s) for s in (99, 100, 999, 1000)] == [1, 2, 2, 3]
        redundant = Array([Text("suffix.example13")] * 301)
        record = classify(redundant, cbor.item_size(redundant))
        assert record.redundancy == "redundant"
        assert record.content_type == "textual"
        nested = Map([(Text("outer"), Map([(Text("inner"), Uint(1))]))])
        assert classify(nested, cbor.item_size(nested)).structure == "nested"
        flat = Map([(Text("a"), Uint(1)), (Text("b"), Uint(2))])
        assert classify(flat, cbor.item_size(flat)).structure == "flat"
        distinct = Array([Uint(n) for n in range(100, 140)])
        assert classify(distinct, 100).redundancy == "non_redundant"


def test_c12_bench_reports_not_asserted(capsys):
    with criterion(12, "corpus statistics out of scope; bench reports only", 60.0):
        # population statistics from the private corpora are not reproduced;
        # the bench subcommand reports runtimes without asserting them
        for target in ("json", "cbor", "dnswire", "dnscbor"):
            assert cli_run(["bench", "--target", target, "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count("n=10") == 8  # two operations per target


def test_c12_bench_iterations_below_one_is_a_usage_error(capsys):
    # No mean or spread exists for fewer than one sample.
    for iterations in ("0", "-1"):
        assert cli_run(["bench", "--target", "json", "--iterations", iterations]) == 2
        assert "--iterations: %s is below 1" % iterations in capsys.readouterr().err
