import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import a_rdata, mx_rdata, random_message, soa_rdata, srv_rdata
from cborkit.analysis import message_names
from cborkit.cbor import Bytes
from cborkit.dnscbor import CodecContext, ROLE_RESPONSE, encode_message
from cborkit.dnswire import (
    BadPointerTarget,
    CLASS_IN,
    DnsMessage,
    DnsWireError,
    FieldOverflow,
    LabelOverflow,
    Name,
    NameOverflow,
    PointerLoop,
    Question,
    RDATA_LAYOUTS,
    RdataFields,
    ResourceRecord,
    SectionOverflow,
    TYPE_A,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NS,
    TYPE_OPT,
    TYPE_SOA,
    TYPE_SRV,
    TYPE_TXT,
    Truncated,
    decode_wire,
    encode_wire,
    name_rdata,
    pack_rdata,
    unpack_rdata,
)

# hand-built wire bytes for the www.example.cz A query (12-byte header,
# then \x03www\x07example\x02cz\x00, type A, class IN)
QUERY_WIRE = (
    struct.pack(">HHHHHH", 0x1234, 0x0100, 1, 0, 0, 0)
    + b"\x03www\x07example\x02cz\x00"
    + struct.pack(">HH", TYPE_A, CLASS_IN)
)


def test_query_decode_golden():
    msg = decode_wire(QUERY_WIRE)
    assert msg.id == 0x1234
    assert msg.flags == 0x0100
    assert not msg.is_response
    assert len(msg.questions) == 1
    q = msg.questions[0]
    assert q.name.to_text() == "www.example.cz"
    assert q.name.labels == (b"www", b"example", b"cz")
    assert (q.rtype, q.rclass) == (TYPE_A, CLASS_IN)
    assert msg.answers == msg.authority == msg.additional == []


def test_query_round_trip_both_ways():
    msg = decode_wire(QUERY_WIRE)
    assert encode_wire(msg, compress=True) == QUERY_WIRE
    assert encode_wire(msg, compress=False) == QUERY_WIRE


def test_response_pointer_at_offset_12():
    response = DnsMessage(
        0x1234,
        0x8180,
        [Question(Name.from_text("www.example.cz"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(
                Name.from_text("www.example.cz"), TYPE_A, CLASS_IN, 300, a_rdata("192.0.2.7")
            )
        ],
    )
    wire = encode_wire(response, compress=True)
    # the question name starts right after the 12-byte header
    answer_name_offset = 12 + len(b"\x03www\x07example\x02cz\x00") + 4
    assert wire[answer_name_offset : answer_name_offset + 2] == b"\xc0\x0c"
    assert decode_wire(wire) == response


def test_response_pointer_expansion_from_foreign_encoder():
    # build compressed bytes by hand: answer name is a bare pointer
    head = struct.pack(">HHHHHH", 9, 0x8180, 1, 1, 0, 0)
    question = b"\x03www\x07example\x02cz\x00" + struct.pack(">HH", 1, 1)
    answer = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 300, 4) + bytes([192, 0, 2, 7])
    msg = decode_wire(head + question + answer)
    assert msg.answers[0].name.to_text() == "www.example.cz"


def test_two_questions_share_suffix():
    msg = DnsMessage(
        1,
        0x0100,
        [
            Question(Name.from_text("a.example.org"), TYPE_A, CLASS_IN),
            Question(Name.from_text("b.example.org"), TYPE_A, CLASS_IN),
        ],
    )
    wire = encode_wire(msg, compress=True)
    # second question emits one literal label then a pointer
    second = wire[12 + 15 + 4 :]
    assert second[:2] == b"\x01b"
    assert second[2] & 0xC0 == 0xC0
    assert decode_wire(wire) == msg


def test_identical_names_become_pure_pointers():
    msg = DnsMessage(
        1,
        0x0100,
        [
            Question(Name.from_text("x.example.org"), TYPE_A, CLASS_IN),
            Question(Name.from_text("x.example.org"), 2, CLASS_IN),
        ],
    )
    wire = encode_wire(msg, compress=True)
    offset = 12 + 15 + 4
    assert wire[offset : offset + 2] == b"\xc0\x0c"
    assert decode_wire(wire) == msg


def test_root_name_single_zero_byte():
    msg = DnsMessage(0, 0, [Question(Name(()), 2, CLASS_IN)])
    wire = encode_wire(msg)
    assert wire[12:13] == b"\x00"
    assert decode_wire(wire).questions[0].name == Name(())
    assert Name(()).to_text() == ""


def test_rdata_names_compressed_and_expanded():
    msg = DnsMessage(
        7,
        0x8180,
        [Question(Name.from_text("a.example.org"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(
                Name.from_text("a.example.org"), TYPE_CNAME, CLASS_IN, 60,
                name_rdata("b.example.org"),
            ),
            ResourceRecord(
                Name.from_text("b.example.org"), TYPE_MX, CLASS_IN, 60,
                mx_rdata(10, "mail.example.org"),
            ),
        ],
        authority=[
            ResourceRecord(
                Name.from_text("example.org"), TYPE_SOA, CLASS_IN, 60,
                soa_rdata("ns.example.org", "admin.example.org", 1, 2, 3, 4, 5),
            )
        ],
        additional=[
            ResourceRecord(
                Name.from_text("_s._tcp.example.org"), TYPE_SRV, 3, 60,
                srv_rdata(1, 2, 8080, "sv.example.org"),
            )
        ],
    )
    compressed = encode_wire(msg, compress=True)
    plain = encode_wire(msg, compress=False)
    assert len(compressed) < len(plain)
    assert decode_wire(compressed) == msg
    assert decode_wire(plain) == msg
    # decoded rdata is always the uncompressed serialization
    again = decode_wire(compressed)
    assert unpack_rdata(TYPE_CNAME, again.answers[0].rdata).names[0].to_text() == "b.example.org"
    assert unpack_rdata(TYPE_MX, again.answers[1].rdata) == ((10,), (Name.from_text("mail.example.org"),), ())
    soa = unpack_rdata(TYPE_SOA, again.authority[0].rdata)
    assert soa.names[0].to_text() == "ns.example.org" and soa.tail == (1, 2, 3, 4, 5)
    assert unpack_rdata(TYPE_SRV, again.additional[0].rdata).names[0].to_text() == "sv.example.org"


def test_opt_record_carried_verbatim():
    opt = ResourceRecord(Name(()), TYPE_OPT, 4096, 0x00008000, b"")
    msg = DnsMessage(3, 0x0100, [Question(Name.from_text("example.org"), TYPE_A, CLASS_IN)],
                     additional=[opt])
    assert decode_wire(encode_wire(msg)) == msg


def test_unknown_rdata_not_compressed():
    # TXT rdata containing pointer-like bytes must pass through untouched
    blob = b"\xc0\x0c\x03www"
    msg = DnsMessage(4, 0x8180, [Question(Name.from_text("example.org"), 16, CLASS_IN)],
                     answers=[ResourceRecord(Name.from_text("example.org"), 16, CLASS_IN, 5, blob)])
    back = decode_wire(encode_wire(msg, compress=True))
    assert back.answers[0].rdata == blob


def test_pointer_loop_rejected():
    head = struct.pack(">HHHHHH", 0, 0, 1, 0, 0, 0)
    # pointer to itself
    with pytest.raises(PointerLoop):
        decode_wire(head + b"\xc0\x0c" + b"\x00\x01\x00\x01")
    # forward pointer
    with pytest.raises(PointerLoop):
        decode_wire(head + b"\xc0\x20" + b"\x00\x01\x00\x01" + b"\x00" * 32)
    # two pointers bouncing: second target not strictly below the first
    data = head + b"\x01a\xc0\x0f\x00\x01\x00\x01\x01b\xc0\x0c\x00\x01\x00\x01"
    with pytest.raises(PointerLoop):
        decode_wire(struct.pack(">HHHHHH", 0, 0, 2, 0, 0, 0) + data[12:])


def _pointer_chain_message(chain: int, owners: int) -> bytes:
    """A response whose TXT rdata holds the name "a" and then ``chain``
    pointers, each to the one before, followed by ``owners`` records without
    rdata whose owner points at the last one: ``chain + 1`` pointers each."""
    start = 12 + 1 + 10  # the header, then the TXT record's root owner and fields
    chain_bytes = bytearray(b"\x01a\x00")
    previous = start
    for _ in range(chain):
        chain_bytes += struct.pack(">H", 0xC000 | previous)
        previous = start + len(chain_bytes) - 2
    txt = b"\x00" + struct.pack(">HHIH", TYPE_TXT, CLASS_IN, 0, len(chain_bytes)) + chain_bytes
    owner = struct.pack(">HHHIH", 0xC000 | previous, TYPE_A, CLASS_IN, 0, 0)
    return struct.pack(">HHHHHH", 0, 0x8180, 0, 1 + owners, 0, 0) + txt + owner * owners


def test_pointer_hops_are_bounded():
    # 127 pointers, as many as a 255-byte name has labels, still decode.
    assert decode_wire(_pointer_chain_message(126, 1)).answers[1].name == Name((b"a",))
    with pytest.raises(PointerLoop):
        decode_wire(_pointer_chain_message(127, 1))
    # Unbounded, each of the 4,096 owners would walk all 8,178 pointers.
    wire = _pointer_chain_message(8177, 4096)
    assert len(wire) <= 0xFFFF
    with pytest.raises(PointerLoop):
        decode_wire(wire)


def test_pointer_into_header_rejected():
    head = struct.pack(">HHHHHH", 0, 0, 1, 0, 0, 0)
    with pytest.raises(BadPointerTarget):
        decode_wire(head + b"\xc0\x04" + b"\x00\x01\x00\x01")


def test_label_and_name_overflow():
    with pytest.raises(LabelOverflow):
        Name((b"a" * 64,))
    with pytest.raises(LabelOverflow):
        Name((b"",))
    with pytest.raises(NameOverflow):
        Name(tuple(b"aaaaaaa" for _ in range(40)))
    head = struct.pack(">HHHHHH", 0, 0, 1, 0, 0, 0)
    with pytest.raises(LabelOverflow):
        decode_wire(head + b"\x40" + b"a" * 64 + b"\x00\x00\x01\x00\x01")


def test_truncated_inputs():
    with pytest.raises(Truncated):
        decode_wire(b"\x00" * 11)
    with pytest.raises(Truncated):
        decode_wire(struct.pack(">HHHHHH", 0, 0, 1, 0, 0, 0) + b"\x03ww")
    with pytest.raises(Truncated):
        decode_wire(QUERY_WIRE[:-1])


def test_section_overflow():
    with pytest.raises(SectionOverflow):
        ResourceRecord(Name(()), 16, CLASS_IN, 0, b"x" * 65536)


_A_RECORD_TTL_2_32 = ResourceRecord(Name(()), TYPE_A, CLASS_IN, 2**32, b"\0" * 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: pack_rdata(TYPE_MX, RdataFields((70000,), (Name(()),), ())),
        lambda: mx_rdata(70000, "a"),
        lambda: srv_rdata(1, 2, 70000, "a"),
        lambda: soa_rdata("a", "b", 2**32, 1, 2, 3, 4),
        lambda: encode_wire(DnsMessage(id=70000)),
        lambda: encode_wire(DnsMessage(answers=[_A_RECORD_TTL_2_32])),
        lambda: encode_wire(DnsMessage(answers=[_A_RECORD_TTL_2_32]), compress=False),
    ],
    ids=["pack_rdata", "mx_rdata", "srv_rdata", "soa_rdata", "id", "ttl", "ttl-uncompressed"],
)
def test_integer_wider_than_its_field(build):
    with pytest.raises(FieldOverflow):
        build()


def test_name_text_escaping():
    name = Name((b"a.b", b"c\\d", b"\x07e", b"org"))
    text = name.to_text()
    assert Name.from_text(text) == name
    assert Name.from_text("www.example.cz.").to_text() == "www.example.cz"
    assert Name.from_text(".") == Name(())
    # The final dot is the root after an escaped backslash, not after an escaped dot.
    name = Name((b"a\\",))
    assert name.to_text() == "a\\\\"
    assert Name.from_text(name.to_text() + ".") == name
    assert Name.from_text("a\\.").labels == (b"a.",)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a\\\\.", (b"a\\",)),  # an escaped backslash, then the final dot
        ("a\\\\\\.", (b"a\\.",)),  # an escaped backslash, then an escaped dot
        ("a\\.b.", (b"a.b",)),
        ("\\065b", (b"Ab",)),
        ("\\12x", (b"12x",)),  # fewer than three digits escape one character
        ("é\\065.x.", (b"\xc3\xa9A", b"x")),
        ("\\256", DnsWireError),
        ("a\\", DnsWireError),  # a trailing lone backslash
        ("a..b", LabelOverflow),
        (".a", LabelOverflow),
        ("\ud800.com", UnicodeEncodeError),
        ("a\\\ud800", UnicodeEncodeError),
    ],
)
def test_name_from_text_edge_cases(text, expected):
    if isinstance(expected, tuple):
        assert Name.from_text(text).labels == expected
    else:
        with pytest.raises(expected) as caught:
            Name.from_text(text)
        assert type(caught.value) is expected


# Labels built to reach both parsing paths of ``Name.from_text``: the
# escape walk (``.``, ``\``, space, 0x7F, bytes that are not UTF-8) and the
# split on dots (plain ASCII and printable UTF-8).
_LABELS = st.one_of(
    st.binary(min_size=1, max_size=63),
    st.lists(st.sampled_from(b".\\ \x7f\xc3\xa9\xffaZ0-"), min_size=1, max_size=63).map(bytes),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=15)
    .map(lambda t: t.encode("utf-8")),
    st.text("abcXYZ019-_*", min_size=1, max_size=63).map(str.encode),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LABELS, min_size=1, max_size=3))
def test_name_text_round_trip(labels):
    name = Name(tuple(labels))
    text = name.to_text()
    assert Name.from_text(text) == name
    assert Name.from_text(text + ".") == name


def test_name_from_text_non_ascii_is_utf8():
    assert Name.from_text("é.com").labels == (b"\xc3\xa9", b"com")
    assert Name.from_text("\\☃").labels == (b"\xe2\x98\x83",)
    assert Name.from_text("é\\..x").labels == (b"\xc3\xa9.", b"x")
    with pytest.raises(LabelOverflow):
        Name.from_text("☃" * 22)  # 66 bytes


def test_label_text_fast_path_matches_the_per_byte_rule():
    for b in range(256):
        if b in b'."\\;()@$':
            want = "\\" + chr(b)
        elif 0x20 < b < 0x7F:
            want = chr(b)
        else:
            want = "\\%03d" % b
        assert Name((bytes([b]),)).to_text() == want


def test_utf8_labels_keep_printable_characters():
    assert Name((b"\xc3\xa9", b"com")).to_text() == "é.com"
    # a non-printable code point, and a label that is not UTF-8
    assert Name(("a\u200b".encode(), b"\xc3")).to_text() == "a\\226\\128\\139.\\195"
    assert Name(("é\n.".encode(),)).to_text() == "é\\010\\."
    for name in (Name((b"\xc3\xa9", b"com")), Name(("a\u200b".encode(), b"\xc3\xa9\xc3"))):
        assert Name.from_text(name.to_text()) == name


def test_decoded_names_keep_their_spelling_and_share_one_object():
    owner = Name.from_text("example.org")
    target = Name.from_text("MAIL.example.org")
    msg = DnsMessage(7, 0x8180, [Question(Name.from_text("Example.ORG"), TYPE_A, CLASS_IN)],
                     answers=[
                         ResourceRecord(owner, TYPE_CNAME, CLASS_IN, 60, name_rdata("MAIL.example.org")),
                         ResourceRecord(target, TYPE_A, CLASS_IN, 60, a_rdata("192.0.2.1")),
                         ResourceRecord(owner, TYPE_MX, CLASS_IN, 60, mx_rdata(10, "MAIL.example.org")),
                     ])
    got = decode_wire(encode_wire(msg, compress=False))
    assert got == msg
    assert [got.questions[0].name.labels, got.answers[0].name.labels] == [
        (b"Example", b"ORG"), (b"example", b"org")]
    cname, a, mx = got.answers
    assert got.questions[0].name is not cname.name
    assert cname.name is mx.name
    assert cname.rdata_fields().names[0] is a.name is mx.rdata_fields().names[0]


def test_decoded_split_equals_unpack_rdata():
    rng = random.Random(11)
    for _ in range(150):
        msg = decode_wire(encode_wire(random_message(rng)))
        for record in (*msg.answers, *msg.authority, *msg.additional):
            assert record.rdata_fields() == unpack_rdata(record.rtype, record.rdata)
    # new rdata on a decoded record is split again
    record = decode_wire(encode_wire(DnsMessage(answers=[
        ResourceRecord(Name(()), TYPE_CNAME, CLASS_IN, 1, name_rdata("a.example"))]))).answers[0]
    record.rdata = name_rdata("b.example")
    assert record.rdata_fields().names == (Name.from_text("b.example"),)
    record.rdata = b"\x05"
    assert record.rdata_fields() is None


def test_case_insensitive_compare():
    a = Name.from_text("WWW.Example.ORG")
    b = Name.from_text("www.example.org")
    assert a.equals(b)
    assert a != b  # raw labels keep their case


def test_compress_never_longer_and_round_trip_random():
    rng = random.Random(42)
    for _ in range(150):
        msg = random_message(rng)
        compressed = encode_wire(msg, compress=True)
        plain = encode_wire(msg, compress=False)
        assert len(compressed) <= len(plain)
        assert decode_wire(compressed) == msg
        assert decode_wire(plain) == msg


@pytest.mark.parametrize(
    "rtype, rdata",
    [
        (TYPE_CNAME, name_rdata("a.example") + b"\x01\x02"),
        (TYPE_NS, name_rdata("example")[:-1]),  # name never ends
        (TYPE_MX, mx_rdata(5, "m.example") + b"zz"),
        (TYPE_MX, b"\x00\x05"),  # no room for the exchange
        (TYPE_SRV, srv_rdata(1, 2, 3, "s.example") + b"\x00"),
        (TYPE_SOA, soa_rdata("a.example", "b.example", 1, 2, 3, 4, 5)[:-1]),
    ],
    ids=["cname-trailing", "ns-unterminated", "mx-trailing", "mx-no-exchange",
         "srv-trailing", "soa-short-tail"],
)
def test_compression_writes_rdata_off_its_layout_verbatim(rtype, rdata):
    # the owner shares a suffix with the rdata, so a rewrite would compress
    msg = DnsMessage(9, 0x8180, [Question(Name.from_text("example"), TYPE_A, CLASS_IN)],
                     answers=[ResourceRecord(Name.from_text("m.example"), rtype,
                                             CLASS_IN, 60, rdata)])
    tail = struct.pack(">H", len(rdata)) + rdata
    assert encode_wire(msg, compress=True).endswith(tail)
    assert encode_wire(msg, compress=False).endswith(tail)
    # the CBOR codec carries it as a byte string, and it holds no names
    record = encode_message(msg, CodecContext(role=ROLE_RESPONSE)).item.items[-1].items[0]
    assert record.items[-1] == Bytes(rdata)
    assert message_names(msg) == [Name.from_text("example"), Name.from_text("m.example")]


_labels = st.binary(min_size=1, max_size=20)
_names = st.lists(_labels, max_size=5).map(lambda labels: Name(tuple(labels)))
_FIELD_BOUNDS = {"H": 0xFFFF, "I": 0xFFFFFFFF}


@st.composite
def _rdata_fields(draw):
    rtype, (head, count, tail) = draw(st.sampled_from(sorted(RDATA_LAYOUTS.items())))

    def ints(codes):
        return tuple(draw(st.integers(0, _FIELD_BOUNDS[c])) for c in codes)

    prefix = ints(head)
    names = tuple(draw(_names) for _ in range(count))
    return rtype, RdataFields(prefix, names, ints(tail))


@settings(max_examples=300)
@given(_rdata_fields())
def test_rdata_layout_round_trip(case):
    rtype, fields = case
    rdata = pack_rdata(rtype, fields)
    assert unpack_rdata(rtype, rdata) == fields
    # and through the wire codec, compressed or not
    msg = DnsMessage(1, 0x8180, [Question(Name.from_text("example"), TYPE_A, CLASS_IN)],
                     answers=[ResourceRecord(Name(), rtype, CLASS_IN, 1, rdata)])
    for compress in (True, False):
        assert decode_wire(encode_wire(msg, compress)) == msg


def _pointer_targets(wire: bytes) -> list[int]:
    """The target of every compression pointer in the question names, the
    owner names and the names inside ``RDATA_LAYOUTS`` rdata."""
    targets = []

    def skip_name(pos):
        while wire[pos]:
            if wire[pos] >= 0xC0:
                targets.append(struct.unpack(">H", wire[pos : pos + 2])[0] & 0x3FFF)
                return pos + 2
            pos += 1 + wire[pos]
        return pos + 1

    qd, an, ns, ar = struct.unpack(">HHHH", wire[4:12])
    pos = 12
    for _ in range(qd):
        pos = skip_name(pos) + 4
    for _ in range(an + ns + ar):
        pos = skip_name(pos)
        rtype, _, _, rdlen = struct.unpack(">HHIH", wire[pos : pos + 10])
        pos += 10
        if rtype in RDATA_LAYOUTS:
            head, count, _ = RDATA_LAYOUTS[rtype]
            at = pos + struct.calcsize(">" + head)
            for _ in range(count):
                at = skip_name(at)
        pos += rdlen
    return targets


def test_no_pointer_past_the_14_bit_offset_limit():
    # 65 TXT strings of 255 bytes push every later name past offset 0x3FFF,
    # where a pointer cannot reach: those names are spelled out again, and
    # only suffixes written before the limit are pointed at.
    name = Name.from_text
    txt = (b"\xff" + b"t" * 255) * 65
    msg = DnsMessage(7, 0x8180, [Question(name("example.org"), TYPE_A, CLASS_IN)], answers=[
        ResourceRecord(name("www.example.org"), TYPE_A, CLASS_IN, 60, a_rdata("192.0.2.1")),
        ResourceRecord(name("example.org"), TYPE_TXT, CLASS_IN, 60, txt),
        ResourceRecord(name("late.example.org"), TYPE_CNAME, CLASS_IN, 60,
                       name_rdata("alias.late.example.org")),
        ResourceRecord(name("late.example.org"), TYPE_MX, CLASS_IN, 60,
                       mx_rdata(10, "mx.late.example.org")),
        ResourceRecord(name("www.example.org"), TYPE_A, CLASS_IN, 60, a_rdata("192.0.2.2")),
    ], authority=[
        ResourceRecord(name("example.org"), TYPE_SOA, CLASS_IN, 60,
                       soa_rdata("ns.late.example.org", "late.example.org", 1, 2, 3, 4, 5)),
    ])
    wire = encode_wire(msg)
    assert wire.index(b"\x04late") > 0x3FFF
    assert wire.count(b"\x04late") == 6  # one per name under late.example.org
    targets = _pointer_targets(wire)
    assert len(targets) == 10 and max(targets) <= 0x3FFF
    assert decode_wire(wire) == msg
    assert hashlib.sha256(wire).hexdigest() == (
        "1e81f5946afb8e5ed84eb6c483e63e8c941ffc6dc99b5b160ac064741fb451e7"
    )
