import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mx_rdata, random_message, soa_rdata, srv_rdata
from cborkit import cbor, dnscbor, dnspacked
from cborkit.cbor import Array, Bytes, CborItem, Tag, Text, Uint
from cborkit.dnscbor import (
    BadReference,
    CodecContext,
    DnsCborError,
    ComponentRef,
    MissingQuestionContext,
    MultiQuestion,
    REF_TAG_1PLUS0,
    ROLE_QUERY,
    ROLE_RESPONSE,
    TypeMismatch,
    decode_message,
    encode_message,
    item_to_message,
)
from cborkit.dnswire import (
    CLASS_IN,
    DnsMessage,
    Name,
    Question,
    RDATA_LAYOUTS,
    RdataFields,
    ResourceRecord,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_SOA,
    TYPE_SRV,
    name_rdata,
    pack_rdata,
    unpack_rdata,
)

DATA = Path(__file__).parent / "data"


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


def test_component_referencing_structure():
    ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    encoded = encode_message(cname_referral_response(), ctx)
    t = ctx.mode.tag
    assert encoded.item == Array(
        [
            Array([Text("www"), Text("example"), Text("org"), Uint(1)]),
            Array([Array([Tag(t, Uint(0)), Uint(3218), Uint(5), Tag(t, Uint(1))])]),
            Array([Array([Tag(t, Uint(1)), Uint(3218), Uint(1), Bytes(bytes.fromhex("c6336423"))])]),
        ]
    )


def test_reference_tag_numbers():
    assert ComponentRef.one_plus_zero().tag == 7  # 1-byte tag head
    assert ComponentRef.one_plus_one().tag == 140  # 2-byte tag head


def test_component_referencing_golden_bytes_and_decode():
    golden = bytes.fromhex((DATA / "cname_referral_compref10.hex").read_text().strip())
    ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    encoded = encode_message(cname_referral_response(), ctx)
    assert encoded.data == golden
    assert decode_message(golden, ctx) == cname_referral_response()


def test_utf8_label_is_as_short_in_plain_mode_as_in_component_mode():
    msg = DnsMessage(0, 0x0100, [Question(Name((b"\xc3\xa9", b"com")), TYPE_A, CLASS_IN)])
    for mode in (None, ComponentRef.one_plus_zero()):
        encoded = encode_message(msg, CodecContext(role=ROLE_QUERY, mode=mode))
        assert len(encoded.data) == 10
        assert decode_message(encoded.data, CodecContext(role=ROLE_QUERY, mode=mode)) == msg


def test_component_referencing_decode_fields():
    ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    msg = decode_message(
        bytes.fromhex((DATA / "cname_referral_compref10.hex").read_text().strip()), ctx
    )
    q = msg.questions[0]
    assert q.name.to_text() == "www.example.org"
    assert (q.rtype, q.rclass) == (TYPE_A, CLASS_IN)
    answer = msg.answers[0]
    assert answer.rtype == TYPE_CNAME and answer.ttl == 3218
    from cborkit.dnswire import unpack_rdata

    assert unpack_rdata(TYPE_CNAME, answer.rdata).names[0].to_text() == "example.org"
    extra = msg.additional[0]
    assert extra.name.to_text() == "example.org"
    assert extra.rdata == bytes([198, 51, 100, 35])
    assert msg.flags == 0x8180 and msg.id == 0


def test_mode_none_referral_layout():
    ctx = CodecContext(role=ROLE_RESPONSE, mode=None)
    encoded = encode_message(cname_referral_response(), ctx)
    assert cbor.to_diagnostic(encoded.item) == (
        '[["www.example.org", 1], [[3218, 5, "example.org"]],'
        ' [["example.org", 3218, 1, h\'c6336423\']]]'
    )
    assert decode_message(encoded.data, ctx) == cname_referral_response()


def test_question_elision_with_request_context():
    msg = cname_referral_response()
    request = Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)
    ctx = CodecContext(role=ROLE_RESPONSE, request_question=request, mode=None)
    encoded = encode_message(msg, ctx)
    assert encoded.question_elided
    assert isinstance(encoded.item.items[0], Array)
    assert all(isinstance(e, Array) for e in encoded.item.items)  # no question array
    assert decode_message(encoded.data, ctx) == msg
    # a differing request question keeps the question in the message
    other = Question(Name.from_text("www.example.org"), TYPE_AAAA, CLASS_IN)
    ctx2 = CodecContext(role=ROLE_RESPONSE, request_question=other, mode=None)
    encoded2 = encode_message(msg, ctx2)
    assert not encoded2.question_elided
    assert len(encoded2.data) > len(encoded.data)


def test_question_elision_is_case_insensitive():
    msg = cname_referral_response()
    request = Question(Name.from_text("WWW.EXAMPLE.ORG"), TYPE_A, CLASS_IN)
    ctx = CodecContext(role=ROLE_RESPONSE, request_question=request, mode=None)
    encoded = encode_message(msg, ctx)
    assert encoded.question_elided
    restored = decode_message(encoded.data, ctx)
    assert restored.questions[0].name.equals(msg.questions[0].name)


def test_missing_question_context():
    request = Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)
    ctx = CodecContext(role=ROLE_RESPONSE, request_question=request, mode=None)
    encoded = encode_message(cname_referral_response(), ctx)
    with pytest.raises(MissingQuestionContext):
        decode_message(encoded.data, CodecContext(role=ROLE_RESPONSE, mode=None))


def test_question_type_class_elision():
    def question_array(rtype, rclass):
        msg = DnsMessage(0, 0x0100, [Question(Name.from_text("example.org"), rtype, rclass)])
        encoded = encode_message(msg, CodecContext(role=ROLE_QUERY))
        return encoded.item.items[0].items

    assert question_array(TYPE_AAAA, CLASS_IN) == [Text("example.org")]
    assert question_array(TYPE_A, CLASS_IN) == [Text("example.org"), Uint(1)]
    # class != IN forces both fields, even for AAAA
    assert question_array(TYPE_AAAA, 3) == [Text("example.org"), Uint(28), Uint(3)]
    assert question_array(TYPE_A, 3) == [Text("example.org"), Uint(1), Uint(3)]


def test_flags_only_when_non_default():
    query = DnsMessage(0, 0x0100, [Question(Name.from_text("x.org"), TYPE_AAAA, CLASS_IN)])
    encoded = encode_message(query, CodecContext(role=ROLE_QUERY))
    assert not any(isinstance(e, Uint) for e in encoded.item.items)
    loud = DnsMessage(0, 0x0000, [Question(Name.from_text("x.org"), TYPE_AAAA, CLASS_IN)])
    encoded = encode_message(loud, CodecContext(role=ROLE_QUERY))
    assert encoded.item.items[0] == Uint(0)
    back = decode_message(encoded.data, CodecContext(role=ROLE_QUERY))
    assert back.flags == 0


def test_multi_question_rejected():
    q = Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)
    with pytest.raises(MultiQuestion):
        encode_message(DnsMessage(0, 0, [q, q]), CodecContext(role=ROLE_QUERY))
    with pytest.raises(MultiQuestion):
        encode_message(DnsMessage(0, 0, []), CodecContext(role=ROLE_QUERY))


def test_section_count_disambiguation_response():
    base = cname_referral_response()
    # answer + additional, empty authority -> 2 sections
    encoded = encode_message(base, CodecContext(role=ROLE_RESPONSE))
    assert len(encoded.item.items) == 3  # question + 2 sections
    # answer only
    only_answer = DnsMessage(0, 0x8180, base.questions, answers=base.answers)
    encoded = encode_message(only_answer, CodecContext(role=ROLE_RESPONSE))
    assert len(encoded.item.items) == 2
    # authority present forces all three sections
    with_auth = DnsMessage(
        0, 0x8180, base.questions, answers=base.answers,
        authority=[ResourceRecord(Name.from_text("example.org"), TYPE_SOA, CLASS_IN, 60,
                                  soa_rdata("ns.example.org", "admin.example.org", 1, 2, 3, 4, 5))],
    )
    encoded = encode_message(with_auth, CodecContext(role=ROLE_RESPONSE))
    assert len(encoded.item.items) == 4
    assert encoded.item.items[3] == Array([])  # explicit empty additional
    for msg in (base, only_answer, with_auth):
        ctx = CodecContext(role=ROLE_RESPONSE)
        assert decode_message(encode_message(msg, ctx).data, ctx) == msg


def test_section_count_disambiguation_query():
    q = [Question(Name.from_text("x.org"), TYPE_AAAA, CLASS_IN)]
    extra = ResourceRecord(Name.from_text("y.org"), TYPE_A, CLASS_IN, 60, b"\x01\x02\x03\x04")
    auth = ResourceRecord(Name.from_text("z.org"), TYPE_A, CLASS_IN, 60, b"\x05\x06\x07\x08")
    ctx = CodecContext(role=ROLE_QUERY)
    only_additional = DnsMessage(0, 0x0100, q, additional=[extra])
    encoded = encode_message(only_additional, ctx)
    assert len(encoded.item.items) == 2  # question + additional
    assert decode_message(encoded.data, ctx) == only_additional
    with_auth = DnsMessage(0, 0x0100, q, authority=[auth])
    encoded = encode_message(with_auth, ctx)
    assert len(encoded.item.items) == 3  # question + authority + empty additional
    assert encoded.item.items[2] == Array([])
    assert decode_message(encoded.data, ctx) == with_auth


def test_query_answers_dropped_by_default():
    msg = DnsMessage(
        0, 0x0000,
        [Question(Name.from_text("_http._tcp.local"), 12, CLASS_IN)],
        answers=[ResourceRecord(Name.from_text("a._http._tcp.local"), 12, CLASS_IN, 120,
                                name_rdata("b.local"))],
    )
    ctx = CodecContext(role=ROLE_QUERY)
    encoded = encode_message(msg, ctx)
    assert encoded.dropped_answers == 1
    decoded = decode_message(encoded.data, ctx)
    assert decoded.answers == []
    # with query answers allowed, everything survives at 3 sections
    ctx_ka = CodecContext(role=ROLE_QUERY, allow_query_answers=True)
    encoded_ka = encode_message(msg, ctx_ka)
    assert encoded_ka.dropped_answers == 0
    assert decode_message(encoded_ka.data, ctx_ka) == msg
    # draft behavior rejects 3 query sections on decode
    with pytest.raises(TypeMismatch):
        decode_message(encoded_ka.data, ctx)


def _component_encoder():
    return dnscbor._Encoder(CodecContext(mode=ComponentRef.one_plus_zero()))


def test_component_index_registration():
    encoder = _component_encoder()
    table = encoder.refs.suffixes
    assert encoder.name_items(Name.from_text("www.example.org")) == [
        Text("www"), Text("example"), Text("org")]
    assert table == {
        (b"www", b"example", b"org"): 0,
        (b"example", b"org"): 1,
        (b"org",): 2,
    }
    assert encoder.refs.next_index == 3
    # whole-name match
    assert table.longest((b"example", b"org")) == (0, 1)
    # no match
    assert table.longest((b"nomatch", b"test")) == (2, None)
    # partial match against the table (brute-force cross-check below)
    assert table.longest((b"a", b"example", b"org")) == (1, 1)
    # keys are case-folded by the caller, ASCII letters only
    assert Name((b"A", b"EXAMPLE", b"Org", "É".encode())).key() == (
        b"a", b"example", b"org", "É".encode())
    assert encoder.name_items(Name.from_text("mail.Example.org")) == [
        Text("mail"), Tag(REF_TAG_1PLUS0, Uint(1))]
    assert table[(b"mail", b"example", b"org")] == 3
    assert encoder.refs.next_index == 4
    # emitting a recorded suffix again keeps the earliest index
    assert encoder.name_items(Name.from_text("example.org")) == [Tag(REF_TAG_1PLUS0, Uint(1))]
    assert table[(b"example", b"org")] == 1
    assert encoder.refs.next_index == 4
    # the root takes an index and records no suffix
    assert encoder.name_items(Name()) == [Text("")]
    assert encoder.refs.next_index == 5 and len(table) == 4


def test_lookup_matches_brute_force():
    rng = random.Random(9)
    encoder = _component_encoder()
    table = encoder.refs.suffixes
    pool = [b"org", b"net", b"example", b"www", b"mail", b"a", b"b"]
    for _ in range(100):
        labels = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 5)))
        literal, ref = table.longest(labels)
        # brute force: smallest i whose suffix is in the table
        expect_literal, expect_ref = len(labels), None
        for i in range(len(labels)):
            if labels[i:] in table:
                expect_literal, expect_ref = i, table[labels[i:]]
                break
        assert (literal, ref) == (expect_literal, expect_ref)
        # the encoder spells out that many labels and references the rest
        items = encoder.name_items(Name(labels))
        assert items[:literal] == [Text(label.decode()) for label in labels[:literal]]
        assert items[literal:] == ([] if ref is None else [Tag(REF_TAG_1PLUS0, Uint(ref))])
    # every table index points below next_index and is consistent
    assert all(v < encoder.refs.next_index for v in table.values())


def test_reference_validity_forward_refs_impossible():
    ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    encoded = encode_message(cname_referral_response(), ctx)

    def max_ref(item, seen=0):
        refs = []

        def walk(node):
            if isinstance(node, Tag) and node.number == ctx.mode.tag:
                refs.append(node.content.value)
            elif isinstance(node, Array):
                for child in node.items:
                    walk(child)

        walk(item)
        return refs

    texts_before: list[int] = []

    # replay the stream: every reference index must be below the number of
    # literal text strings decoded so far
    count = 0
    def scan(node):
        nonlocal count
        if isinstance(node, Text):
            count += 1
        elif isinstance(node, Tag) and node.number == ctx.mode.tag:
            assert node.content.value < count
        elif isinstance(node, Array):
            for child in node.items:
                scan(child)

    scan(encoded.item)


def test_bad_reference_rejected():
    ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    t = ctx.mode.tag
    # question name referencing component 0 before any text was seen
    bad = Array([Array([Tag(t, Uint(0)), Uint(1)])])
    with pytest.raises(BadReference):
        item_to_message(bad, ctx)


def test_type_mismatch_cases():
    ctx = CodecContext(role=ROLE_RESPONSE, mode=None)
    with pytest.raises(TypeMismatch):
        item_to_message(Array([]), ctx)
    with pytest.raises(TypeMismatch):
        item_to_message(Uint(1), ctx)
    with pytest.raises(TypeMismatch):
        decode_message(b"\x80", ctx)
    # section holding a non-array element
    q = Array([Text("x.org"), Uint(1)])
    with pytest.raises(TypeMismatch):
        item_to_message(Array([q, Array([Uint(1)])]), ctx)
    # a section that is not an array, in every role and name mode
    component_q = Array([Text("x"), Text("org"), Uint(1)])
    for mode, question in ((None, q), (ComponentRef.one_plus_zero(), component_q)):
        for role in (ROLE_RESPONSE, ROLE_QUERY):
            with pytest.raises(TypeMismatch):
                item_to_message(Array([question, Uint(5)]), CodecContext(role=role, mode=mode))
    # queries must carry a question
    with pytest.raises(TypeMismatch):
        item_to_message(Array([Array([Array([Uint(1), Uint(1), Bytes(b"")])])]),
                        CodecContext(role=ROLE_QUERY))


def test_hostile_integers_rejected():
    ctx = CodecContext(role=ROLE_QUERY)
    # flags wider than 16 bits
    with pytest.raises(TypeMismatch):
        item_to_message(Array([Uint(1 << 16), Array([Text("x.org"), Uint(1)])]), ctx)
    # TTL wider than 32 bits
    rr = Array([Text("y.org"), Uint(1 << 32), Uint(16), Bytes(b"x")])
    with pytest.raises(TypeMismatch):
        item_to_message(Array([Array([Text("x.org"), Uint(1)]), Array([rr])]), ctx)
    # question type wider than 16 bits
    with pytest.raises(TypeMismatch):
        item_to_message(Array([Array([Text("x.org"), Uint(1 << 20)])]), ctx)
    # oversized label smuggled through a text component
    with pytest.raises(TypeMismatch):
        item_to_message(Array([Array([Text("a" * 64 + ".org"), Uint(1)])]), ctx)
    refctx = CodecContext(role=ROLE_QUERY, mode=ComponentRef.one_plus_zero())
    with pytest.raises(TypeMismatch):
        item_to_message(Array([Array([Text("a" * 64), Text("org"), Uint(1)])]), refctx)


def test_case_folding_is_ascii_only():
    # 'É' and 'é' are distinct labels for suffix matching, unlike ASCII case
    upper = Name(("Étude".encode(), b"example", b"org"))
    lower = Name(("étude".encode(), b"example", b"org"))
    msg = DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(upper, TYPE_A, CLASS_IN, 60, b"\x01\x02\x03\x04"),
            ResourceRecord(lower, TYPE_A, CLASS_IN, 60, b"\x05\x06\x07\x08"),
            ResourceRecord(Name((b"WWW", b"EXAMPLE", b"ORG")), TYPE_A, CLASS_IN, 60,
                           b"\x09\x0a\x0b\x0c"),
        ],
    )
    ctx = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    encoded = encode_message(msg, ctx)
    decoded = decode_message(encoded.data, ctx)
    assert decoded.answers[0].name == upper  # byte-exact, not case-folded
    assert decoded.answers[1].name == lower
    # the ASCII-case-different owner reuses the suffix via a reference and
    # therefore adopts the referenced spelling (DNS-equal, not byte-equal)
    third = encoded.item.items[1].items[2]
    assert isinstance(third.items[0], Tag)
    assert decoded.answers[2].name.equals(Name((b"WWW", b"EXAMPLE", b"ORG")))
    assert decoded.answers[2].name == Name((b"www", b"example", b"org"))


def test_rr_name_elision_mode_none_only():
    msg = cname_referral_response()
    none_item = encode_message(msg, CodecContext(role=ROLE_RESPONSE, mode=None)).item
    answer = none_item.items[1].items[0]
    assert isinstance(answer.items[0], Uint)  # starts with the TTL
    ref_item = encode_message(
        msg, CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
    ).item
    answer = ref_item.items[1].items[0]
    assert isinstance(answer.items[0], Tag)  # name present as a reference


def test_component_mode_elides_owner_when_question_is_elided():
    # with no question components on the wire there is nothing to
    # reference, so the matching owner elides exactly like plain mode
    msg = DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN)],
        answers=[ResourceRecord(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN,
                                300, bytes([192, 0, 2, 7]))],
    )
    request = Question(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN)
    for mode in (None, ComponentRef.one_plus_zero(), ComponentRef.one_plus_one()):
        ctx = CodecContext(role=ROLE_RESPONSE, request_question=request, mode=mode)
        encoded = encode_message(msg, ctx)
        assert encoded.question_elided
        record = encoded.item.items[0].items[0]
        assert isinstance(record.items[0], Uint)  # owner elided in every mode
        assert decode_message(encoded.data, ctx) == msg
    sizes = {
        str(mode): len(encode_message(
            msg, CodecContext(role=ROLE_RESPONSE, request_question=request, mode=mode)
        ).data)
        for mode in (None, ComponentRef.one_plus_zero())
    }
    assert len(set(sizes.values())) == 1  # no names emitted: byte-identical cost


def test_structured_rdata_round_trip_all_modes():
    msg = DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("a.example.org"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(Name.from_text("a.example.org"), TYPE_CNAME, CLASS_IN, 60,
                           name_rdata("b.example.org")),
            ResourceRecord(Name.from_text("b.example.org"), 15, CLASS_IN, 60,
                           mx_rdata(10, "mail.example.org")),
            ResourceRecord(Name.from_text("b.example.org"), 33, CLASS_IN, 60,
                           srv_rdata(1, 2, 8080, "sv.example.org")),
            ResourceRecord(Name.from_text("b.example.org"), 16, CLASS_IN, 60, b"opaque"),
        ],
        authority=[
            ResourceRecord(Name.from_text("example.org"), TYPE_SOA, CLASS_IN, 60,
                           soa_rdata("ns.example.org", "admin.example.org", 1, 2, 3, 4, 5)),
        ],
    )
    for mode in (None, ComponentRef.one_plus_zero(), ComponentRef.one_plus_one()):
        ctx = CodecContext(role=ROLE_RESPONSE, mode=mode)
        encoded = encode_message(msg, ctx)
        assert decode_message(encoded.data, ctx) == msg


def test_opaque_rdata_mode():
    msg = cname_referral_response()
    ctx = CodecContext(role=ROLE_RESPONSE, structured_rdata=False)
    encoded = encode_message(msg, ctx)
    answer = encoded.item.items[1].items[0]
    assert isinstance(answer.items[-1], Bytes)  # CNAME rdata as raw bytes
    assert decode_message(encoded.data, ctx) == msg


def test_compref_never_much_longer_than_none():
    # with labels under 24 bytes, splicing costs at most 2 extra bytes per
    # name (a reference where plain mode elided the owner entirely)
    rng = random.Random(21)
    for _ in range(120):
        msg = random_message(rng, response=True)
        ctx_none = CodecContext(role=ROLE_RESPONSE, mode=None)
        ctx_ref = CodecContext(role=ROLE_RESPONSE, mode=ComponentRef.one_plus_zero())
        size_none = len(encode_message(msg, ctx_none).data)
        size_ref = len(encode_message(msg, ctx_ref).data)
        names = 1 + sum(len(s) for s in (msg.answers, msg.authority, msg.additional)) * 2
        assert size_ref <= size_none + 2 * names


@pytest.mark.parametrize("response", [False, True])
def test_round_trip_random_messages(response):
    rng = random.Random(1234 + response)
    for _ in range(200):
        msg = random_message(rng, response=response)
        role = ROLE_RESPONSE if response else ROLE_QUERY
        for mode in (None, ComponentRef.one_plus_zero(), ComponentRef.one_plus_one()):
            ctx = CodecContext(role=role, mode=mode)
            encoded = encode_message(msg, ctx)
            decoded = decode_message(encoded.data, ctx)
            assert decoded == msg, cbor.to_diagnostic(encoded.item)
            # canonical fixed point
            assert encode_message(decoded, ctx).data == encoded.data


def test_round_trip_with_request_context_random():
    rng = random.Random(77)
    for _ in range(100):
        msg = random_message(rng, response=True)
        request = msg.questions[0]
        ctx = CodecContext(role=ROLE_RESPONSE, request_question=request,
                           mode=ComponentRef.one_plus_zero())
        encoded = encode_message(msg, ctx)
        has_content = bool(
            msg.answers or msg.authority or msg.additional or msg.flags != 0x8180
        )
        # a message with nothing else to carry keeps its question so the
        # output never degenerates to an empty array
        assert encoded.question_elided == has_content
        assert decode_message(encoded.data, ctx) == msg


ALL_MODES = (None, ComponentRef.one_plus_zero(), ComponentRef.one_plus_one())
_COUNTERS = [Uint(v) for v in (1, 2, 3, 4, 5)]


def _plain_response(question: CborItem, rdata_records: list) -> bytes:
    """A response in plain mode whose answers are (type, rdata item) pairs."""
    answers = [Array([Uint(60), Uint(rtype), rdata]) for rtype, rdata in rdata_records]
    return cbor.encode(Array([Array([question, Uint(TYPE_A)]), Array(answers)]))


@pytest.mark.parametrize(
    "rtype, rdata",
    [
        (TYPE_MX, Array([Uint(10), Text("a" * 70 + ".com")])),
        (TYPE_MX, Array([Uint(10), Text("a..com")])),
        (TYPE_SRV, Array([Uint(1), Uint(2), Uint(3), Text("x\\")])),
        (TYPE_SOA, Array([Text("\\256"), Text("b"), *_COUNTERS])),
        (TYPE_SOA, Array([Text("a"), Text("☃" * 22), *_COUNTERS])),
        # shape: field counts and widths come from the layout
        (TYPE_MX, Array([Uint(10), Text("a"), Uint(1)])),
        (TYPE_MX, Array([Uint(1 << 16), Text("a")])),
        (TYPE_SRV, Array([Uint(1), Uint(2), Uint(1 << 16), Text("a")])),
        (TYPE_SOA, Array([Text("a"), Text("b"), *_COUNTERS[:4], Uint(1 << 32)])),
        (TYPE_SOA, Array([Text("a"), Text("b"), *_COUNTERS[:4]])),
        (TYPE_SOA, Array([Uint(1), Text("b"), *_COUNTERS])),
        (TYPE_MX, Text("a")),
    ],
    ids=["mx-long-label", "mx-empty-label", "srv-dangling-escape", "soa-escape-range",
         "soa-long-utf8-label", "mx-extra-field", "mx-wide-preference", "srv-wide-port",
         "soa-wide-counter", "soa-missing-counter", "soa-uint-name", "mx-text"],
)
def test_plain_nested_name_and_shape_errors_are_type_mismatch(rtype, rdata):
    data = _plain_response(Text("example"), [(rtype, rdata)])
    with pytest.raises(TypeMismatch):
        decode_message(data, CodecContext(role=ROLE_RESPONSE))


def test_structured_rdata_widths_at_their_bounds():
    data = _plain_response(Text("example"), [
        (TYPE_MX, Array([Uint(0xFFFF), Text("a")])),
        (TYPE_SOA, Array([Text("a"), Text("b"), *_COUNTERS[:4], Uint(0xFFFFFFFF)])),
    ])
    mx, soa = decode_message(data, CodecContext(role=ROLE_RESPONSE)).answers
    assert mx.rdata == mx_rdata(0xFFFF, "a")
    assert soa.rdata == soa_rdata("a", "b", 1, 2, 3, 4, 0xFFFFFFFF)


def test_fixed_rdata_fields_are_bounded_by_their_layout_widths():
    # A field before the names (MX preference) and one after them (SOA serial).
    def response(preference, serial):
        return _plain_response(Text("example"), [
            (TYPE_MX, Array([Uint(preference), Text("a")])),
            (TYPE_SOA, Array([Text("a"), Text("b"), Uint(serial), *_COUNTERS[1:]])),
        ])

    ctx = CodecContext(role=ROLE_RESPONSE)
    mx, soa = decode_message(response(0xFFFF, 0xFFFFFFFF), ctx).answers
    assert mx.rdata == mx_rdata(0xFFFF, "a")
    assert soa.rdata == soa_rdata("a", "b", 0xFFFFFFFF, 2, 3, 4, 5)
    for preference, serial in ((1 << 16, 1), (1, 1 << 32)):
        with pytest.raises(TypeMismatch):
            decode_message(response(preference, serial), ctx)


@pytest.mark.parametrize("text", ["é.com", "☃.com", "☃"])
def test_plain_non_ascii_names_decode_as_in_component_mode(text):
    labels = tuple(c.encode("utf-8") for c in text.split("."))
    plain = decode_message(
        _plain_response(Text(text), [(TYPE_SOA, Array([Text(text), Text("b"), *_COUNTERS]))]),
        CodecContext(role=ROLE_RESPONSE),
    )
    assert plain.questions[0].name.labels == labels
    want_soa = RdataFields((), (Name(labels), Name((b"b",))), (1, 2, 3, 4, 5))
    assert plain.answers[0].rdata == pack_rdata(TYPE_SOA, want_soa)
    ref = ComponentRef.one_plus_zero()
    components = Array([*(Text(c) for c in text.split(".")), Uint(TYPE_A)])
    component = decode_message(
        cbor.encode(Array([components])), CodecContext(role=ROLE_RESPONSE, mode=ref)
    )
    assert component.questions[0].name.labels == labels


# No ASCII capitals: component mode references a suffix ignoring ASCII
# case and so would respell a later name in the case of the first.
_label_texts = st.text("ab-_.\\ \x00\x7féÉ☃", min_size=1, max_size=8)
_dns_names = st.lists(_label_texts.map(str.encode), max_size=4).map(
    lambda labels: Name(tuple(labels))
)


@st.composite
def _name_bearing_records(draw):
    rtype, (head, count, tail) = draw(st.sampled_from(sorted(RDATA_LAYOUTS.items())))

    def ints(codes):
        return tuple(draw(st.integers(0, {"H": 0xFFFF, "I": 0xFFFFFFFF}[c])) for c in codes)

    fields = RdataFields(ints(head), tuple(draw(_dns_names) for _ in range(count)), ints(tail))
    owner = draw(_dns_names)
    ttl = draw(st.integers(0, 0xFFFFFFFF))
    return ResourceRecord(owner, rtype, CLASS_IN, ttl, pack_rdata(rtype, fields))


@settings(max_examples=150, deadline=None)
@given(_dns_names, st.lists(_name_bearing_records(), min_size=1, max_size=6))
def test_name_bearing_records_round_trip_in_every_mode(qname, records):
    msg = DnsMessage(0, 0x8180, [Question(qname, TYPE_A, CLASS_IN)], answers=records)
    for mode in ALL_MODES:
        for structured in (True, False):
            ctx = CodecContext(role=ROLE_RESPONSE, mode=mode, structured_rdata=structured)
            encoded = encode_message(msg, ctx)
            assert decode_message(encoded.data, ctx) == msg, cbor.to_diagnostic(encoded.item)


_components = st.text(
    st.characters(blacklist_characters=".\\", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_components, min_size=1, max_size=4))
def test_same_labels_in_every_mode(components):
    want = tuple(c.encode("utf-8") for c in components)
    texts = {None: [Text(".".join(components))]}
    texts.update({m: [Text(c) for c in components] for m in ALL_MODES[1:]})
    for mode, name_items in texts.items():
        data = cbor.encode(Array([Array([*name_items, Uint(TYPE_A)])]))
        ctx = CodecContext(role=ROLE_QUERY, mode=mode)
        assert decode_message(data, ctx).questions[0].name.labels == want


@settings(max_examples=300, deadline=None)
@given(st.text(), st.text(), st.text())
def test_plain_text_names_raise_only_dns_cbor_errors(question, exchange, mname):
    data = _plain_response(Text(question), [
        (TYPE_MX, Array([Uint(1), Text(exchange)])),
        (TYPE_SOA, Array([Text(mname), Text("b"), *_COUNTERS])),
        (TYPE_CNAME, Text(exchange)),
    ])
    try:
        decode_message(data, CodecContext(role=ROLE_RESPONSE))
    except DnsCborError:
        pass


# --- RFC 4343: round trips are equal up to ASCII case ----------------------


def _map_names(msg: DnsMessage, change) -> DnsMessage:
    """``msg`` with ``change`` applied to every name: questions, owners and
    the names inside rdata."""

    def record(rr: ResourceRecord) -> ResourceRecord:
        fields = unpack_rdata(rr.rtype, rr.rdata)
        rdata = rr.rdata
        if fields is not None:
            rdata = pack_rdata(rr.rtype, fields._replace(names=tuple(map(change, fields.names))))
        return dataclasses.replace(rr, name=change(rr.name), rdata=rdata)

    return dataclasses.replace(
        msg,
        questions=[dataclasses.replace(q, name=change(q.name)) for q in msg.questions],
        answers=[record(rr) for rr in msg.answers],
        authority=[record(rr) for rr in msg.authority],
        additional=[record(rr) for rr in msg.additional],
    )


def _mixed_case(rng: random.Random):
    """Upper-cases a random two fifths of the ASCII lower-case letters."""

    def change(name: Name) -> Name:
        return Name(tuple(
            bytes(c - 32 if 0x61 <= c <= 0x7A and rng.random() < 0.4 else c for c in label)
            for label in name.labels
        ))

    return change


def _folded(name: Name) -> Name:
    return Name(name.key())


@pytest.mark.parametrize("with_request", [False, True])
def test_round_trips_equal_up_to_ascii_case_in_every_mode(with_request):
    rng = random.Random(4343 + with_request)
    for _ in range(150):
        msg = _map_names(random_message(rng), _mixed_case(rng))
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        question = None
        if with_request and role == ROLE_RESPONSE:
            asked = msg.questions[0]
            question = dataclasses.replace(asked, name=_mixed_case(rng)(asked.name))
        folded = _map_names(msg, _folded)
        decoded = {}
        for mode in ALL_MODES:
            ctx = CodecContext(role=role, request_question=question, mode=mode)
            decoded[mode] = decode_message(encode_message(msg, ctx).data, ctx)
            assert _map_names(decoded[mode], _folded) == folded
        # The packed modes wrap the plain item, so they decode to exactly
        # what plain mode decodes.
        ctx = CodecContext(role=role, request_question=question)
        plain = encode_message(msg, ctx).item
        for pmode in (dnspacked.PACKED_LITE, dnspacked.PACKED_FULL):
            data = dnspacked.pack(plain, pmode).encode()
            item = dnspacked.unpack(dnspacked.PackedEnvelope.from_bytes(data))
            assert item_to_message(item, ctx) == decoded[None]


# --- component_size: the component modes' size without their encoding -----

# Labels that share suffixes, differ in ASCII case only, need escapes in
# presentation form, or take a two-byte text head (24 bytes and longer).
_SIZE_LABELS = [b"www", b"WWW", b"mail", b"example", b"Example", b"org", b"a.b", b"\x00x",
                "é".encode(), b"l" * 30]
_SIZE_BAD_LABEL = b"\xff\xfe"


@st.composite
def _size_names(draw, bad: bool) -> Name:
    pool = _SIZE_LABELS + ([_SIZE_BAD_LABEL] if bad else [])
    if draw(st.integers(0, 4)) == 0:  # 20-26 labels: arrays near 24 items, where heads grow
        start, count = draw(st.integers(0, 3)), draw(st.integers(20, 26))
        return Name(tuple(b"%d" % i for i in range(start, start + count)))
    return Name(tuple(draw(st.lists(st.sampled_from(pool), max_size=4))))


@st.composite
def _size_messages(draw):
    bad = draw(st.integers(0, 3)) == 0  # names may carry a label that is not UTF-8
    names = _size_names(bad)
    qname = draw(names)
    question = Question(qname, draw(st.sampled_from([TYPE_A, TYPE_AAAA])), draw(st.sampled_from([CLASS_IN, 3])))

    def record():
        # An owner equal to the question, the same object or up to case.
        owner = draw(st.one_of(names, st.just(qname), st.just(Name(qname.key()))))
        rtype = draw(st.sampled_from([TYPE_A, TYPE_CNAME, TYPE_MX, TYPE_SRV, TYPE_SOA]))
        if draw(st.integers(0, 7)) == 0:
            rdata = b"\x00"  # does not fit any name-bearing layout
        elif rtype == TYPE_A:
            rdata = bytes(4)
        else:
            head, count, tail = RDATA_LAYOUTS[rtype]
            fields = RdataFields((7,) * len(head), tuple(draw(names) for _ in range(count)), (9,) * len(tail))
            rdata = pack_rdata(rtype, fields)
        return ResourceRecord(owner, rtype, draw(st.sampled_from([CLASS_IN, CLASS_IN, 3])), 60, rdata)

    sections = [[record() for _ in range(draw(st.integers(0, 3)))] for _ in range(3)]
    response = draw(st.booleans())
    msg = DnsMessage(0, draw(st.sampled_from([0x0100, 0x8180, 0x8583])), [question], *sections)
    request_question = None
    if response and draw(st.booleans()):
        request_question = Question(Name(qname.key()), question.rtype, question.rclass)
    ctx = CodecContext(
        role=ROLE_RESPONSE if response else ROLE_QUERY,
        request_question=request_question,
        allow_query_answers=draw(st.booleans()),
        structured_rdata=draw(st.booleans()),
    )
    return msg, ctx


def _count_tags(item: CborItem, number: int) -> int:
    if isinstance(item, Tag):
        return (item.number == number) + _count_tags(item.content, number)
    if isinstance(item, Array):
        return sum(_count_tags(child, number) for child in item.items)
    return 0


def _labels(prefix: str, count: int) -> Name:
    return Name(tuple(b"%s%d" % (prefix.encode(), i) for i in range(count)))


# Arrays of exactly 24 items, the first whose head takes two bytes: the
# question (23 labels and its type), a record (an owner of 21 labels, TTL,
# type and address) and an MX exchange of 24 labels.
_EDGE_MESSAGE = DnsMessage(0, 0x8180, [Question(_labels("q", 23), TYPE_A, CLASS_IN)], [
    ResourceRecord(_labels("o", 21), TYPE_A, CLASS_IN, 60, bytes(4)),
    ResourceRecord(_labels("q", 23), TYPE_MX, CLASS_IN, 60, mx_rdata(10, _labels("m", 24).to_text())),
])


@settings(max_examples=300, deadline=None)
@given(_size_messages())
@example((_EDGE_MESSAGE, CodecContext(role=ROLE_RESPONSE)))
def test_component_size_equals_the_component_encoding(case):
    msg, ctx = case
    plain = encode_message(msg, ctx)
    try:
        size, references = dnscbor.component_size(msg, ctx, plain)
    except TypeMismatch:
        for mode in ALL_MODES[1:]:
            with pytest.raises(TypeMismatch):
                encode_message(msg, dataclasses.replace(ctx, mode=mode))
        return
    one_plus_zero = encode_message(msg, dataclasses.replace(ctx, mode=ALL_MODES[1]))
    assert (size, references) == (
        len(one_plus_zero.data), _count_tags(one_plus_zero.item, REF_TAG_1PLUS0)
    ), cbor.to_diagnostic(one_plus_zero.item)
    # compare_modes' 1+1 size: one byte more per reference
    one_plus_one = encode_message(msg, dataclasses.replace(ctx, mode=ALL_MODES[2]))
    assert size + references == len(one_plus_one.data)
