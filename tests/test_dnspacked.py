import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_item, random_message
from cborkit import cbor, dnspacked
from cborkit.analysis import compare_modes
from cborkit.cbor import Array, Bytes, Map, Nint, Simple, Tag, Text, Uint
from cborkit.dnscbor import CodecContext, ComponentRef, ROLE_QUERY, ROLE_RESPONSE, encode_message
from cborkit.dnspacked import (
    AlreadyPacked,
    ForwardReference,
    IndexOutOfRange,
    PACKED_FULL,
    PACKED_LITE,
    PackedEnvelope,
    TypeMismatch,
    pack,
    packed_sizes,
    unpack,
)


def test_empty_table_penalty_is_exactly_four_bytes():
    for item in (Uint(12), Text("solo"), Array([Uint(1), Uint(2), Uint(3)])):
        env = pack(item, PACKED_FULL)
        assert env.table == []
        assert env.rump == item
        assert len(env.encode()) == cbor.item_size(item) + 4
        assert unpack(env) == item
    assert pack(Uint(12)).encode().hex() == "d87182800c"


def test_envelope_shape():
    env = pack(Uint(1))
    item = env.to_item()
    assert isinstance(item, Tag) and item.number == 113
    assert isinstance(item.content, Array) and len(item.content.items) == 2
    again = PackedEnvelope.from_bytes(env.encode())
    assert again.table == env.table and again.rump == env.rump


def test_lite_two_texts_share_suffix():
    item = Array([Text("www.example.org"), Text("mail.example.org")])
    env = pack(item, PACKED_LITE)
    assert env.table == [Text("example.org")]
    assert env.rump == Array(
        [
            Tag(216, Array([Text("www."), Uint(0)])),
            Tag(216, Array([Text("mail."), Uint(0)])),
        ]
    )
    assert unpack(env) == item
    # saving arithmetic: exhaustive candidate check for this input
    # suffix "example.org" (entry 12B): refs cost 9B and 10B against
    # originals of 16B and 17B -> net 14 - 12 = +2; "org" is negative.
    assert len(env.encode()) == cbor.item_size(item) + 4 - 2


def test_lite_table_holds_only_text():
    rng = random.Random(55)
    for _ in range(100):
        msg = random_message(rng)
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        item = encode_message(msg, CodecContext(role=role)).item
        env = pack(item, PACKED_LITE)
        assert all(isinstance(entry, Text) for entry in env.table)
        assert unpack(env) == item


def test_full_admits_duplicate_scalars():
    item = Array([Uint(3600), Uint(3600), Uint(3600), Bytes(b"abcd"), Bytes(b"abcd")])
    env = pack(item, PACKED_FULL)
    assert Uint(3600) in env.table
    assert Bytes(b"abcd") in env.table
    assert any(isinstance(e, Simple) for e in _flatten(env.rump))
    assert unpack(env) == item
    # lite leaves non-text values alone
    env_lite = pack(item, PACKED_LITE)
    assert env_lite.table == []


def test_single_byte_scalars_never_packed():
    item = Array([Uint(0)] * 100 + [Uint(17)] * 100)
    env = pack(item, PACKED_FULL)
    assert env.table == []  # 1-byte encodings cannot shrink


@pytest.mark.parametrize(
    "node",
    [Uint(23), Uint(24), Nint(23), Nint(24), Text(""), Text("a"), Bytes(b""), Bytes(b"a")],
    ids=repr,
)
def test_duplicate_values_are_candidates_from_two_bytes(node):
    candidates = dnspacked._candidates(Array([node, node]), PACKED_FULL)
    values = [cand.entry for cand in candidates if cand.kind == "value"]
    assert values == ([node] if len(cbor.encode(node)) >= 2 else [])


def test_many_addresses_with_shared_prefix_pack_below_unpacked():
    # 1454 four-byte strings over a shared 3-byte prefix force whole-value
    # duplicates (pigeonhole), and those value references carry the win; a
    # 3-byte prefix reference itself costs more than it saves on 4-byte
    # strings, so the admission rule keeps it out.
    addresses = [Bytes(bytes([198, 51, 100, i % 250])) for i in range(1454)]
    item = Array(addresses)
    env = pack(item, PACKED_FULL)
    assert len(env.encode()) < cbor.item_size(item)
    assert unpack(env) == item
    assert all(len(entry.data) == 4 for entry in env.table)


def test_long_shared_prefixes_admitted():
    # a 12-byte prefix over 16-byte strings saves 8 bytes per occurrence
    prefix = bytes(range(32, 44))
    item = Array([Bytes(prefix + bytes([i + 1, i, i, i])) for i in range(6)])
    env = pack(item, PACKED_FULL)
    assert Bytes(prefix) in env.table
    assert any(isinstance(e, Tag) and e.number == 217 for e in _flatten(env.rump))
    assert len(env.encode()) < cbor.item_size(item)
    assert unpack(env) == item


def test_value_reference_indices_above_simple_range():
    # force a table larger than 16 entries; later refs use the value tag
    texts = [Text("token%02d" % i) for i in range(30)]
    item = Array([t for t in texts for _ in (0, 1)])
    env = pack(item, PACKED_FULL)
    assert len(env.table) > 16
    flat = list(_flatten(env.rump))
    assert any(isinstance(e, Tag) and e.number == 6 for e in flat)
    assert any(isinstance(e, Simple) for e in _flatten(env.rump))
    assert unpack(env) == item


def _flatten(item):
    yield item
    if isinstance(item, Array):
        for child in item.items:
            yield from _flatten(child)
    elif isinstance(item, Map):
        for k, v in item.entries:
            yield from _flatten(k)
            yield from _flatten(v)
    elif isinstance(item, Tag):
        yield from _flatten(item.content)


def test_round_trip_random_items():
    rng = random.Random(606)
    for _ in range(300):
        item = random_item(rng, 6)
        try:
            env_full = pack(item, PACKED_FULL)
        except AlreadyPacked:
            continue  # random Simple(<16) or tag collision: not packable input
        assert unpack(env_full) == item
        env_lite = pack(item, PACKED_LITE)
        assert unpack(env_lite) == item


def test_determinism():
    rng = random.Random(17)
    item = Array([random_item(rng, 5) for _ in range(10)])
    try:
        first = pack(item, PACKED_FULL).encode()
    except AlreadyPacked:
        item = Array([Text("a.b"), Text("c.b"), Text("a.b")])
        first = pack(item, PACKED_FULL).encode()
    for _ in range(5):
        assert pack(item, PACKED_FULL).encode() == first


def test_full_not_larger_than_lite_on_random_messages():
    rng = random.Random(3030)
    for _ in range(200):
        msg = random_message(rng)
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        item = encode_message(msg, CodecContext(role=role)).item
        full = len(pack(item, PACKED_FULL).encode())
        lite = len(pack(item, PACKED_LITE).encode())
        assert full <= lite, cbor.to_diagnostic(item)


def test_already_packed_rejected():
    with pytest.raises(AlreadyPacked):
        pack(Array([Simple(3)]))
    with pytest.raises(AlreadyPacked):
        pack(Tag(216, Array([Text("x"), Uint(0)])))
    with pytest.raises(AlreadyPacked):
        pack(Map([(Text("k"), Tag(6, Uint(0)))]))
    # simple values at or above the reference bound are fine
    assert pack(Array([Simple(16), Simple(17)])).rump == Array([Simple(16), Simple(17)])


def test_unpack_errors():
    with pytest.raises(IndexOutOfRange):
        unpack(PackedEnvelope([], Simple(0)))
    with pytest.raises(IndexOutOfRange):
        unpack(PackedEnvelope([Text("x")], Tag(216, Array([Text("a"), Uint(4)]))))
    with pytest.raises(ForwardReference):
        unpack(PackedEnvelope([Simple(0)], Uint(1)))
    with pytest.raises(ForwardReference):
        unpack(PackedEnvelope([Tag(216, Array([Text("a"), Uint(0)]))], Uint(1)))
    with pytest.raises(TypeMismatch):
        unpack(PackedEnvelope([Uint(5)], Tag(216, Array([Text("a"), Uint(0)]))))
    with pytest.raises(TypeMismatch):
        unpack(PackedEnvelope([Text("x")], Tag(217, Array([Uint(0), Bytes(b"t")]))))
    with pytest.raises(TypeMismatch):
        unpack(PackedEnvelope([Text("x")], Tag(216, Array([Uint(0), Text("a")]))))


def test_unpack_goldens():
    assert unpack(PackedEnvelope([], Uint(12))) == Uint(12)
    env = PackedEnvelope([Text("example.org")], Tag(216, Array([Text("www."), Uint(0)])))
    assert unpack(env) == Text("www.example.org")
    env = PackedEnvelope([Bytes(b"\xc6\x33\x64")], Tag(217, Array([Uint(0), Bytes(b"\x23")])))
    assert unpack(env) == Bytes(b"\xc6\x33\x64\x23")
    # whole-value reference through a simple value
    env = PackedEnvelope([Text("shared")], Array([Simple(0), Simple(0)]))
    assert unpack(env) == Array([Text("shared"), Text("shared")])
    # table entries may reference earlier entries
    env = PackedEnvelope(
        [Text("example.org"), Tag(216, Array([Text("www."), Uint(0)]))],
        Simple(1),
    )
    assert unpack(env) == Text("www.example.org")


# --- the lazy greedy against the full-rescan greedy it replaced -----------


def _oracle_pack(item, mode):
    """The earlier packer: every admission rescans every candidate and
    sizes every reference by building it; byte prefixes come from every
    pair of strings."""
    positions = []
    dnspacked._walk(item, positions)
    cands = []  # (kind, entry, {position: original})
    if mode == PACKED_FULL:
        values = {}
        for pos, node in enumerate(positions):
            if isinstance(node, (Text, Bytes, Uint, Nint)) and cbor.item_size(node) >= 2:
                values.setdefault(node, {})[pos] = node
        cands += [("value", node, occs) for node, occs in values.items() if len(occs) >= 2]
    suffixes = {}
    for pos, node in enumerate(positions):
        if isinstance(node, Text) and node.data:
            for _, suffix in dnspacked._dot_suffixes(node.data):
                suffixes.setdefault(suffix, {})[pos] = node
    cands += [("suffix", Text(s), occs) for s, occs in suffixes.items() if len(occs) >= 2]
    if mode == PACKED_FULL:
        strings = [
            (pos, node.data)
            for pos, node in enumerate(positions)
            if isinstance(node, Bytes) and len(node.data) >= dnspacked.MIN_PREFIX_LEN
        ]
        prefixes = set()
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                a, b = strings[i][1], strings[j][1]
                n = 0
                for x, y in zip(a, b):
                    if x != y:
                        break
                    n += 1
                if n >= dnspacked.MIN_PREFIX_LEN:
                    prefixes.add(a[:n])
        for prefix in prefixes:
            occs = {pos: positions[pos] for pos, data in strings if data.startswith(prefix)}
            if len(occs) >= 2:
                cands.append(("prefix", Bytes(prefix), occs))
    cands.sort(key=lambda c: (min(c[2]), c[0], cbor.encode(c[1])))

    def reference(kind, entry, original, index):
        if kind == "value":
            if index < dnspacked.SIMPLE_REF_LIMIT:
                return Simple(index)
            return Tag(dnspacked.VALUE_TAG, Uint(index - dnspacked.SIMPLE_REF_LIMIT))
        if kind == "suffix":
            head = original.data[: len(original.data) - len(entry.data)]
            return Tag(dnspacked.SUFFIX_TAG, Array([Text(head), Uint(index)]))
        return Tag(dnspacked.PREFIX_TAG, Array([Uint(index), Bytes(original.data[len(entry.data) :])]))

    table, consumed, rewrites = [], set(), {}
    while cands:
        index = len(table)
        best, best_saving = None, 0
        for kind, entry, occs in cands:
            saving = -cbor.item_size(entry)
            for pos, original in occs.items():
                if pos not in consumed:
                    saving += cbor.item_size(original) - cbor.item_size(
                        reference(kind, entry, original, index)
                    )
            if saving > best_saving:
                best, best_saving = (kind, entry, occs), saving
        if best is None:
            break
        kind, entry, occs = best
        table.append(entry)
        for pos, original in occs.items():
            if pos not in consumed:
                rewrites[pos] = reference(kind, entry, original, index)
                consumed.add(pos)
        cands.remove(best)
    return PackedEnvelope(table, _oracle_rebuild(item, rewrites, [0]))


def _oracle_rebuild(item, rewrites, counter):
    """The item with the node at each preorder position in ``rewrites``
    replaced by its reference."""
    pos = counter[0]
    counter[0] += 1
    if pos in rewrites:
        return rewrites[pos]
    if isinstance(item, Array):
        return Array([_oracle_rebuild(c, rewrites, counter) for c in item.items])
    if isinstance(item, Map):
        return Map(
            [
                (_oracle_rebuild(k, rewrites, counter), _oracle_rebuild(v, rewrites, counter))
                for k, v in item.entries
            ]
        )
    if isinstance(item, Tag):
        return Tag(item.number, _oracle_rebuild(item.content, rewrites, counter))
    return item


_labels = st.sampled_from(["a", "b", "example", "org", "com", "x1", "mail", "é"])
_dotted = st.lists(_labels, min_size=1, max_size=4).map(".".join)
_texts = st.one_of(_dotted, st.text("ab.", max_size=5))
_byte_prefixes = st.sampled_from([b"", b"\x20\x01\x0d\xb8", b"\xc6\x33\x64", b"\xc6\x33"])
_pads = st.sampled_from([b"", b"", bytes(20), bytes(252)])  # heads widen at 24 and 256
_bytes = st.builds(lambda p, t, pad: p + t + pad, _byte_prefixes, st.binary(max_size=6), _pads)
_ints = st.sampled_from([0, 23, 24, 255, 256, 3600, 65536, 2**32])
_scalars = st.one_of(_texts.map(Text), _bytes.map(Bytes), _ints.map(Uint), _ints.map(Nint))


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=6).map(Array),
            st.lists(st.tuples(kids, kids), max_size=3).map(Map),
            kids.map(lambda c: Tag(1000, c)),
        ),
        max_leaves=40,
    )


@st.composite
def _wide_tables(draw):
    # Enough distinct repeated values and suffixes that the table passes
    # index 16 (value references widen to tag 6) and 24 (wider indices
    # and table head) in both modes, and 40 in full mode.  No suffix is
    # shared by every token: it would be admitted first and leave the
    # rest nothing to save.
    count = draw(st.integers(17, 30))
    tokens = [[Text("%s.t%02d.org" % (head, i)) for head in "ab"] for i in range(count)]
    repeats = draw(st.lists(st.integers(2, 3), min_size=count, max_size=count))
    noise = draw(st.lists(_scalars, max_size=20))
    return Array([t for pair, r in zip(tokens, repeats) for t in pair for _ in range(r)] + noise)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_trees(_scalars), _wide_tables()))
def test_pack_matches_full_rescan_greedy(item):
    for mode in (PACKED_FULL, PACKED_LITE):
        expected = _oracle_pack(item, mode)
        got = pack(item, mode)
        assert got.encode() == expected.encode()
        assert got.table == expected.table


def test_pack_and_compref11_size_on_messages():
    rng = random.Random(2025)
    for _ in range(200):
        msg = random_message(rng)
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        item = encode_message(msg, CodecContext(role=role)).item
        for mode in (PACKED_FULL, PACKED_LITE):
            assert pack(item, mode).encode() == _oracle_pack(item, mode).encode()
        _assert_packed_sizes_exact(item)
        # compare_modes derives the 1+1 size from the 1+0 encoding
        ctx = CodecContext(role=role, mode=ComponentRef.one_plus_one())
        assert compare_modes(msg).sizes["compref11"] == len(encode_message(msg, ctx).data)


def test_rewriting_a_losing_occurrence_raises_a_saving():
    # Past 65535 bytes a string head grows by two bytes at once, so the
    # 3-byte prefix gains +1 on each long string and -1 on the short one.
    # Once the short one becomes a value reference, the prefix saves more
    # than its stale key says and must still beat the equal-saving Uint.
    prefix = b"\x01\x02\x03"
    short = prefix + b"\x09"
    longs = [Bytes(prefix + bytes([0x10 + k]) + bytes(65533)) for k in range(8)]
    item = Array([Bytes(short), Bytes(short), Uint(70000), Uint(70000)] + longs)
    env = pack(item, PACKED_FULL)
    assert env.table == [Bytes(short), Bytes(prefix), Uint(70000)]
    assert env.encode() == _oracle_pack(item, PACKED_FULL).encode()
    _assert_packed_sizes_exact(item)


# --- packed_sizes against the envelopes it stands for ---------------------


def _assert_packed_sizes_exact(item):
    sizes = packed_sizes(item, len(cbor.encode(item)))
    assert sizes == {mode: len(pack(item, mode).encode()) for mode in (PACKED_LITE, PACKED_FULL)}


@settings(max_examples=300, deadline=None)
@given(st.one_of(_trees(_scalars), _wide_tables()))
def test_packed_sizes_match_encoded_envelopes(item):
    _assert_packed_sizes_exact(item)


@pytest.mark.parametrize(
    "item",
    [
        Array([Simple(3)]),
        Tag(216, Array([Text("x"), Uint(0)])),
        Map([(Text("k"), Tag(6, Uint(0)))]),
        Array([Text("a.org"), Text("b.org"), Tag(217, Array([Uint(0), Bytes(b"t")]))]),
    ],
)
def test_packed_sizes_rejects_packed_input_as_pack_does(item):
    with pytest.raises(AlreadyPacked):
        pack(item)
    with pytest.raises(AlreadyPacked):
        packed_sizes(item, cbor.item_size(item))


def test_packed_sizes_with_a_three_byte_table_head():
    tokens = [Text("token%03d" % i) for i in range(300)]
    item = Array(tokens + tokens)
    assert len(pack(item).table) == 300
    _assert_packed_sizes_exact(item)
