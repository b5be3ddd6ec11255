import csv
import io
import os
import random
import struct
import tracemalloc

import pytest

from conftest import (
    build_pcap,
    build_tcp_frame,
    build_udp_frame,
    random_message,
)
from cborkit.analysis import (
    MODES,
    BadMagic,
    FamilyMismatch,
    ModeComparison,
    UnsupportedLinkType,
    common_prefix_bytes,
    common_suffix_bytes,
    common_suffix_components,
    compare_modes,
    decode_in_mode,
    encode_in_mode,
    ingest_hex,
    ingest_pcap,
    message_addresses,
    message_names,
    pair_queries_responses,
    write_csv,
    write_suffix_csv,
)
from cborkit.dnscbor import CodecContext, ComponentRef, ROLE_QUERY, ROLE_RESPONSE
from cborkit.dnscbor import TypeMismatch, decode_message, encode_message
from cborkit import dnspacked
from cborkit.dnswire import (
    CLASS_IN,
    DnsMessage,
    Name,
    Question,
    ResourceRecord,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    encode_wire,
    name_rdata,
)


def test_suffix_bytes_examples():
    a = Name.from_text("service.example.com")
    b = Name.from_text("we-sell-ice.example.com")
    assert common_suffix_bytes(a, b) == 15  # "ice.example.com"
    assert common_suffix_bytes(a, a) == len("service.example.com")
    assert common_suffix_bytes(Name.from_text("a.cz"), Name.from_text("b.de")) == 0
    # case-insensitive
    assert common_suffix_bytes(Name.from_text("X.ORG"), Name.from_text("y.org")) == 4


def test_suffix_components_examples():
    a = Name.from_text("service.example.com")
    b = Name.from_text("we-sell-ice.example.com")
    assert common_suffix_components(a, b) == (2, len("example.com"))
    c = Name.from_text("one.two.three")
    assert common_suffix_components(c, c) == (3, len("one.two.three"))
    assert common_suffix_components(
        Name.from_text("x.cz"), Name.from_text("x.de")
    ) == (0, 0)
    # component length never exceeds bytewise length
    assert common_suffix_components(a, b)[1] <= common_suffix_bytes(a, b)


def test_prefix_bytes():
    assert common_prefix_bytes(bytes([192, 0, 2, 7]), bytes([192, 0, 2, 9])) == 3
    assert common_prefix_bytes(bytes([10, 0, 0, 1]), bytes([192, 0, 2, 1])) == 0
    assert common_prefix_bytes(b"\x20" * 16, b"\x20" * 16) == 16
    with pytest.raises(FamilyMismatch):
        common_prefix_bytes(b"\x01" * 4, b"\x01" * 16)
    with pytest.raises(FamilyMismatch):
        common_prefix_bytes(b"\x01" * 3, b"\x01" * 3)


def cname_referral_response():
    return DnsMessage(
        0,
        0x8180,
        [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)],
        answers=[ResourceRecord(Name.from_text("www.example.org"), TYPE_CNAME,
                                CLASS_IN, 3218, name_rdata("example.org"))],
        additional=[ResourceRecord(Name.from_text("example.org"), TYPE_A, CLASS_IN,
                                   3218, bytes([198, 51, 100, 35]))],
    )


def suffix_rows(*messages: DnsMessage) -> list[list[str]]:
    """The data rows ``write_suffix_csv`` writes for ``messages``."""
    out = io.StringIO()
    write_suffix_csv(out, enumerate((message_names(m), message_addresses(m)) for m in messages))
    rows = list(csv.reader(out.getvalue().splitlines()))
    assert rows[0] == "message,kind,a,b,bytewise_suffix,component_labels,component_bytes,prefix_bytes,equal".split(",")
    return rows[1:]


def test_suffix_rows_of_a_referral():
    rows = suffix_rows(cname_referral_response())
    # names: question, answer owner, answer rdata, additional owner
    assert len(rows) == 6 and all(row[1] == "name" for row in rows)
    equal_pairs = [row for row in rows if row[8] == "1"]
    assert len(equal_pairs) == 2
    assert all(int(row[4]) >= int(row[6]) for row in rows)  # bytewise >= component bytes


def test_suffix_rows_of_addresses():
    msg = DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(Name.from_text("x.org"), TYPE_A, CLASS_IN, 60, bytes([198, 51, 100, 35])),
            ResourceRecord(Name.from_text("x.org"), TYPE_A, CLASS_IN, 60, bytes([198, 51, 100, 36])),
            ResourceRecord(Name.from_text("x.org"), TYPE_AAAA, CLASS_IN, 60, bytes(16)),
        ],
    )
    # the v4/v6 mix contributes no cross-family pair
    assert [row for row in suffix_rows(msg) if row[1] == "address"] == [
        ["0", "address", "c6336423", "c6336424", "", "", "", "3", ""]
    ]


def test_single_question_query_has_no_pairs():
    msg = DnsMessage(0, 0x0100, [Question(Name.from_text("solo.org"), TYPE_A, CLASS_IN)])
    assert suffix_rows(msg) == []


def test_compare_modes_orderings():
    comparison = compare_modes(cname_referral_response())
    assert comparison.role == "response"
    assert comparison.classic_size == len(encode_wire(cname_referral_response(), compress=True))
    assert comparison.sizes["compref10"] <= comparison.sizes["compref11"]
    assert comparison.sizes["packedfull"] <= comparison.sizes["packedlite"]
    report = comparison.savings("compref10")
    assert report.savings_b == comparison.classic_size - comparison.sizes["compref10"]


def test_compare_modes_skips_only_the_component_modes_of_a_label_that_is_not_utf8():
    msg = DnsMessage(7, 0x0100, [Question(Name((b"\xff\xfe", b"example", b"org")), TYPE_A, CLASS_IN)])
    comparison = compare_modes(msg)
    ctx = CodecContext(ROLE_QUERY)
    assert comparison.sizes == {
        mode: len(encode_in_mode(msg, ctx, mode).data) for mode in ("unpacked", "packedlite", "packedfull")
    }
    assert isinstance(comparison.skipped, TypeMismatch)
    assert write_csv([comparison]).splitlines()[1].split(",")[6:12] == [""] * 6
    assert compare_modes(cname_referral_response()).skipped is None


def test_mode_dispatch_leaves_the_callers_context_alone():
    msg = cname_referral_response()
    ctx = CodecContext(ROLE_RESPONSE)
    plain = encode_message(msg, ctx).data
    for mode in MODES:
        data = encode_in_mode(msg, ctx, mode).data
        assert ctx.mode is None, mode
        assert decode_in_mode(data, ctx, mode) == msg
        assert ctx.mode is None, mode
        assert encode_message(msg, ctx).data == plain, mode


def test_compare_modes_question_elision_via_request():
    request = DnsMessage(0, 0x0100, [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)])
    with_request = compare_modes(cname_referral_response(), request)
    without = compare_modes(cname_referral_response())
    assert with_request.question_elided and not without.question_elided
    assert with_request.sizes["unpacked"] < without.sizes["unpacked"]


@pytest.mark.parametrize("with_request", [False, True])
def test_compare_modes_sizes_equal_real_encodings(with_request):
    # Only the plain size comes from bytes compare_modes builds; both
    # component sizes and both packed sizes are derived.
    rng = random.Random(808 + with_request)
    for _ in range(200):
        msg = random_message(rng)
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        request = DnsMessage(0, 0x0100, msg.questions[:1]) if with_request else None
        question = msg.questions[0] if with_request and role == ROLE_RESPONSE else None

        def encoded(mode):
            ctx = CodecContext(role=role, request_question=question)
            return encode_in_mode(msg, ctx, mode)

        plain = encoded("unpacked")
        want = {mode: len(encoded(mode).data) for mode in MODES}
        comparison = compare_modes(msg, request)
        assert comparison.sizes == want
        assert comparison.question_elided == plain.question_elided


def test_batch_round_trip_soundness_gate():
    rng = random.Random(40)
    lines = []
    for _ in range(40):
        lines.append(encode_wire(random_message(rng)).hex())
    records, errors = ingest_hex(lines)
    assert not errors
    for record in records:
        role = ROLE_RESPONSE if record.message.is_response else ROLE_QUERY
        for mode in (None, ComponentRef.one_plus_zero(), ComponentRef.one_plus_one()):
            ctx = CodecContext(role=role, mode=mode)
            encoded = encode_message(record.message, ctx)
            assert decode_message(encoded.data, ctx) == record.message
        plain = encode_message(record.message, CodecContext(role=role))
        for pmode in (dnspacked.PACKED_LITE, dnspacked.PACKED_FULL):
            env = dnspacked.pack(plain.item, pmode)
            assert dnspacked.unpack(env) == plain.item


def test_ingest_hex():
    query = DnsMessage(1, 0x0100, [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)])
    lines = [
        encode_wire(query).hex(),
        "",
        "   ",
        "# full comment line",
        encode_wire(cname_referral_response()).hex() + "  # trailing comment",
        "zz-not-hex",
        "0c",  # truncated message
    ]
    records, skips = ingest_hex(lines)
    assert [r.message.is_response for r in records] == [False, True]
    assert [label for label, _ in skips] == ["line 6", "line 7"]


def test_pairing():
    query = DnsMessage(7, 0x0100, [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)])
    response = DnsMessage(7, 0x8180, [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)])
    orphan = DnsMessage(9, 0x8180, [Question(Name.from_text("y.org"), TYPE_A, CLASS_IN)])
    records, _ = ingest_hex(
        [encode_wire(m).hex() for m in (query, query, response, response, orphan)]
    )
    pairs = pair_queries_responses(records)
    assert len(pairs) == 3
    # two identical queries: earliest unconsumed wins, in order
    assert pairs[0][0] is records[0] and pairs[0][1] is records[2]
    assert pairs[1][0] is records[1] and pairs[1][1] is records[3]
    assert pairs[2][0] is None and pairs[2][1].message == orphan


def test_pairing_responses_never_match_later_queries():
    response = DnsMessage(7, 0x8180, [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)])
    query = DnsMessage(7, 0x0100, [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)])
    records, _ = ingest_hex([encode_wire(response).hex(), encode_wire(query).hex()])
    pairs = pair_queries_responses(records)
    assert pairs == [(None, records[0])]


def test_write_csv_formatting():
    comparison = ModeComparison(
        role="response",
        question_elided=False,
        classic_size=100,
        sizes={"unpacked": 80, "compref10": 80, "compref11": 80,
               "packedlite": 80, "packedfull": 80},
    )
    text = write_csv([comparison])
    header, row, trailer = text.split("\n")
    assert header.split(",")[:6] == [
        "role", "question_elided", "classic_size",
        "unpacked_size", "unpacked_b", "unpacked_g",
    ]
    assert ",0.200000," in row + ","
    assert trailer == ""
    assert write_csv([]) == header + "\n"


def test_suffix_csv():
    rows = suffix_rows(cname_referral_response(), cname_referral_response())
    assert [row[0] for row in rows] == ["0"] * 6 + ["1"] * 6


def test_suffix_csv_is_written_as_it_is_made():
    # 301 names and 300 addresses make 89,850 rows, about 3.6 MB of CSV;
    # a whole-CSV string or a list of pairs alone would pass that.
    answers = [ResourceRecord(Name.from_text("www.example.org"), TYPE_A, CLASS_IN, 60,
                              struct.pack(">I", i)) for i in range(300)]
    msg = DnsMessage(0, 0x8180, [Question(Name.from_text("www.example.org"))], answers=answers)
    items = [(0, (message_names(msg), message_addresses(msg)))]
    tracemalloc.start()
    try:
        with open(os.devnull, "w", encoding="utf-8", newline="") as out:
            write_suffix_csv(out, items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * 2**20


def make_query_response_wire():
    query = DnsMessage(0x1234, 0x0100,
                       [Question(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN)])
    response = DnsMessage(0x1234, 0x8180,
                          [Question(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN)],
                          answers=[ResourceRecord(Name.from_text("www.example.cz"),
                                                  TYPE_A, CLASS_IN, 300, bytes([192, 0, 2, 7]))])
    return encode_wire(query), encode_wire(response)


def _ingest(pcap):
    """``ingest_pcap``, checking that each packet is counted exactly once."""
    records, skips, stats = ingest_pcap(pcap)
    assert stats.packets == len(records) + stats.skipped_non_dns + len(skips)
    return records, skips, stats


def test_ingest_pcap_basic():
    qwire, rwire = make_query_response_wire()
    later_fragment = build_udp_frame(qwire)
    later_fragment = later_fragment[:20] + struct.pack(">H", 185) + later_fragment[22:]
    frames = [
        build_udp_frame(qwire, sport=40000, dport=53),
        build_udp_frame(rwire, sport=53, dport=40000,
                        src=b"\x0a\x00\x00\x02", dst=b"\x0a\x00\x00\x01"),
        build_udp_frame(b"payload", sport=40000, dport=9999),  # non-DNS UDP
        build_tcp_frame(qwire),  # TCP DNS is skipped
        b"\x02" * 13,  # shorter than an Ethernet header
        later_fragment,  # a non-first IPv4 fragment carries no UDP header
    ]
    records, skips, stats = _ingest(build_pcap(frames))
    assert stats.packets == 6
    assert len(records) == 2
    assert stats.skipped_non_dns == 4
    assert [r.message.is_response for r in records] == [False, True]
    assert records[0].flow == records[1].flow  # symmetric 5-tuple
    pairs = pair_queries_responses(records)
    assert pairs[0][0] is records[0]


def test_ingest_pcap_swapped_and_v6():
    qwire, rwire = make_query_response_wire()
    frames = [
        build_udp_frame(qwire, ipv6=True),
        build_udp_frame(rwire, ipv6=True, v6_ext=True, dport=5353, sport=5353),
    ]
    records, skips, stats = _ingest(build_pcap(frames, swapped=True))
    assert len(records) == 2
    assert stats.ipv6_extension_headers == 1
    assert not records[0].message.is_response


def test_ingest_pcap_mdns_port():
    qwire, _ = make_query_response_wire()
    records, skips, stats = _ingest(build_pcap([build_udp_frame(qwire, sport=5353, dport=5353)]))
    assert len(records) == 1


def test_ingest_pcap_undecodable_counted():
    records, skips, stats = _ingest(build_pcap([build_udp_frame(b"\x00\x01", dport=53)]))
    assert len(skips) == 1 and not records


def test_ingest_pcap_errors():
    with pytest.raises(BadMagic):
        ingest_pcap(b"\x00" * 32)
    with pytest.raises(BadMagic):
        ingest_pcap(b"\x0a")
    with pytest.raises(UnsupportedLinkType):
        ingest_pcap(build_pcap([], linktype=101))


def test_suffix_prefix_symmetry_and_bounds():
    rng = random.Random(8)
    pool = ["com", "org", "example", "ice", "a", "b-c"]
    for _ in range(200):
        a = Name(tuple(rng.choice(pool).encode() for _ in range(rng.randrange(1, 4))))
        b = Name(tuple(rng.choice(pool).encode() for _ in range(rng.randrange(1, 4))))
        assert common_suffix_bytes(a, b) == common_suffix_bytes(b, a)
        assert common_suffix_components(a, b) == common_suffix_components(b, a)
        assert common_suffix_bytes(a, b) <= min(len(a.to_text()), len(b.to_text()))
        labels, joined = common_suffix_components(a, b)
        assert labels <= min(len(a.labels), len(b.labels))
        assert joined <= common_suffix_bytes(a, b)
    for _ in range(100):
        family = rng.choice((4, 16))
        x, y = rng.randbytes(family), rng.randbytes(family)
        assert common_prefix_bytes(x, y) == common_prefix_bytes(y, x) <= family


def test_crafted_redundant_suffix_message_inflates_unpacked():
    # many owners sharing one suffix: classic wire compresses with pointers,
    # the plain CBOR form spells every name out and loses
    answers = [
        ResourceRecord(Name.from_text("h%03d.intranet.com" % i), TYPE_A, CLASS_IN,
                       3218, struct.pack(">I", i))
        for i in range(301)
    ]
    msg = DnsMessage(0, 0x8180,
                     [Question(Name.from_text("www.intranet.com"), TYPE_A, CLASS_IN)],
                     answers=answers)
    comparison = compare_modes(msg)
    assert comparison.savings("unpacked").savings_b < 0
    # name compression recovers the loss
    assert comparison.sizes["compref10"] < comparison.sizes["unpacked"]


def test_suffix_csv_quotes_labels_with_commas():
    msg = DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("a,b.com"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(Name.from_text("a,b.com"), TYPE_A, CLASS_IN, 60, bytes(4)),
            ResourceRecord(Name.from_text('x"y.com'), TYPE_A, CLASS_IN, 60, bytes([1, 2, 3, 4])),
        ],
    )
    rows = suffix_rows(msg)
    assert len(rows) == 3 + 1  # three name pairs, one address pair
    assert all(len(row) == 9 for row in rows)
    assert rows[0][2:4] == ["a,b.com", "a,b.com"]
    assert rows[1][3] == 'x\\"y.com'  # presentation form, quoted for CSV
