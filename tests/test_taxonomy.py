import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_item
from cborkit import cbor
from cborkit.cbor import (
    Array,
    Bool,
    Bytes,
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
from cborkit.taxonomy import (
    CONTENT_TYPES,
    SavingsReport,
    TaxonomyRecord,
    ZeroOriginal,
    classify,
    compute_savings,
    size_tier,
)


def test_savings_basics():
    report = compute_savings(100, 80)
    assert report == SavingsReport(100, 80, 20, 0.2)
    same = compute_savings(57, 57)
    assert same.savings_b == 0 and same.gain_g == 0
    inflated = compute_savings(10, 25)
    assert inflated.savings_b == -15 and inflated.gain_g == -1.5


def test_savings_packed_arithmetic_check():
    # arithmetic check against the reported 23,298 -> 10,214 byte shrink
    report = compute_savings(23298, 10214)
    assert report.savings_b == 13084
    assert abs(report.gain_g - 0.5616) < 1e-4


def test_zero_original_rejected():
    with pytest.raises(ZeroOriginal):
        compute_savings(0, 10)
    with pytest.raises(ZeroOriginal):
        compute_savings(-5, 10)


@pytest.mark.parametrize("size,tier", [(1, 1), (99, 1), (100, 2), (999, 2), (1000, 3), (10**6, 3)])
def test_tier_boundaries(size, tier):
    assert size_tier(size) == tier
    assert classify(Uint(0), size).tier == tier


def test_classify_small_map():
    item = Map([(Text("a"), Uint(1))])
    record = classify(item, cbor.item_size(item))
    # one text leaf, one numeric leaf, one structural node: tie -> textual
    assert record.tier == 1
    assert record.content_type == "textual"
    assert record.structure == "flat"
    assert record.redundancy == "non_redundant"


def test_classify_content_types():
    assert classify(Array([Uint(1), Uint(2), Text("x")]), 10).content_type == "numeric"
    assert classify(Array([Bytes(b"ab"), Bytes(b"cd"), Uint(1)]), 10).content_type == "binary"
    assert classify(Array([Bool(True), Null(), Bool(False)]), 10).content_type == "boolean"
    assert (
        classify(Array([Tag(34, Text("x")), Simple(3), Simple(2)]), 10).content_type
        == "taggy"
    )
    assert classify(Array([Array([]), Array([])]), 10).content_type == "structural"
    # simple values >= 16 count as numeric, below as packed references
    assert classify(Array([Simple(19), Simple(19), Simple(18)]), 10).content_type == "numeric"
    assert classify(Array([Simple(15), Simple(14), Simple(0)]), 10).content_type == "taggy"
    assert classify(Array([Simple(16), Simple(16), Text("x")]), 10).content_type == "numeric"
    assert classify(Array([Simple(15), Simple(15), Uint(1)]), 10).content_type == "taggy"


def test_classify_redundancy():
    repeated = Array([Text("suffix.example13")] * 301)
    assert classify(repeated, 5000).redundancy == "redundant"
    # repeats below two encoded bytes do not count
    zeros = Array([Uint(0)] * 50 + [Bool(True)] * 50)
    assert classify(zeros, 110).redundancy == "non_redundant"
    # a repeated composite subtree counts
    subtree = Array([Array([Uint(1), Uint(2)]), Array([Uint(1), Uint(2)])])
    assert classify(subtree, 10).redundancy == "redundant"
    distinct = Array([Uint(n) for n in range(40, 90)])
    assert classify(distinct, 100).redundancy == "non_redundant"
    # a tag's number is part of its subtree's key
    tags = Array([Tag(6, Uint(0)), Tag(24, Uint(0)), Tag(0, Uint(0))])
    assert classify(tags, 10).redundancy == "non_redundant"
    assert classify(Array([Tag(6, Uint(0)), Tag(6, Uint(0))]), 10).redundancy == "redundant"


def test_classify_structure():
    assert classify(Array([Uint(1)]), 2).structure == "flat"
    assert classify(Array([Array([])]), 2).structure == "nested"
    assert classify(Map([(Text("a"), Array([]))]), 5).structure == "nested"
    # tags are transparent: the packed envelope shape is nested
    envelope = Tag(113, Array([Array([]), Uint(1)]))
    assert classify(envelope, 6).structure == "nested"
    assert classify(Tag(34, Text("x")), 4).structure == "flat"


def test_classify_permutation_invariant():
    rng = random.Random(11)
    for _ in range(50):
        entries = [
            (random_item(rng, 1), random_item(rng, 2)) for _ in range(rng.randrange(2, 6))
        ]
        base = Map(list(entries))
        shuffled = list(entries)
        rng.shuffle(shuffled)
        permuted = Map(shuffled)
        assert classify(base, 100) == classify(permuted, 100)


def test_classify_total_on_random_items():
    rng = random.Random(5)
    for _ in range(200):
        item = random_item(rng, 5)
        record = classify(item, cbor.item_size(item))
        assert record.tier in (1, 2, 3)
        assert record.content_type in (
            "textual",
            "numeric",
            "binary",
            "taggy",
            "boolean",
            "structural",
        )


# The three-walk classify that the one-pass version replaced, kept as the
# reference: it encodes every subtree from scratch.
def _oracle_classify(item, encoded_size):
    counts = Counter()
    _oracle_count_content(item, counts)
    winner = max(CONTENT_TYPES, key=lambda t: (counts[t], -CONTENT_TYPES.index(t)))
    seen = Counter()
    _oracle_collect_encodings(item, seen)
    return TaxonomyRecord(
        tier=size_tier(encoded_size),
        content_type=winner,
        redundancy=(
            "redundant"
            if any(n >= 2 and len(key) >= 2 for key, n in seen.items())
            else "non_redundant"
        ),
        structure="nested" if _oracle_is_nested(item, False) else "flat",
    )


def _oracle_count_content(item, counts):
    if isinstance(item, Text):
        counts["textual"] += 1
    elif isinstance(item, (Uint, Nint, Float)):
        counts["numeric"] += 1
    elif isinstance(item, Simple):
        counts["taggy" if item.value < 16 else "numeric"] += 1
    elif isinstance(item, (Bool, Null, Undefined)):
        counts["boolean"] += 1
    elif isinstance(item, Bytes):
        counts["binary"] += 1
    elif isinstance(item, Tag):
        counts["taggy"] += 1
        _oracle_count_content(item.content, counts)
    elif isinstance(item, Array):
        counts["structural"] += 1
        for child in item.items:
            _oracle_count_content(child, counts)
    elif isinstance(item, Map):
        counts["structural"] += 1
        for key, value in item.entries:
            _oracle_count_content(key, counts)
            _oracle_count_content(value, counts)


def _oracle_collect_encodings(item, seen):
    seen[cbor.encode(item)] += 1
    if isinstance(item, Array):
        for child in item.items:
            _oracle_collect_encodings(child, seen)
    elif isinstance(item, Map):
        for key, value in item.entries:
            _oracle_collect_encodings(key, seen)
            _oracle_collect_encodings(value, seen)
    elif isinstance(item, Tag):
        _oracle_collect_encodings(item.content, seen)


def _oracle_is_nested(item, inside):
    if isinstance(item, (Array, Map)):
        if inside:
            return True
        children = (
            item.items if isinstance(item, Array) else [x for pair in item.entries for x in pair]
        )
        return any(_oracle_is_nested(child, True) for child in children)
    if isinstance(item, Tag):
        return _oracle_is_nested(item.content, inside)
    return False


def _outcome(classifier, item):
    try:
        return classifier(item, 100)
    except cbor.CborError as exc:
        return type(exc)


_floats = st.one_of(
    st.sampled_from(
        [Float(float("nan"), w) for w in (16, 32, 64)]
        + [Float(-0.0, w) for w in (16, 32, 64)]
        + [Float(0.0, 16), Float(1.0, 16), Float(1.0, 64), Float(65504.0, 16)]
    ),
    st.builds(Float, st.floats(width=16), st.just(16)),
    st.builds(Float, st.floats(width=32), st.just(32)),
    st.builds(Float, st.floats(width=64), st.just(64)),
)

# Small pools make repeats common: 1-byte items (0, true, simple(3), [])
# and 2-byte ones (24, "a", simple(32), [0], -25) recur in most trees.
_scalars = st.one_of(
    st.sampled_from(
        [Uint(0), Uint(23), Uint(24), Nint(0), Nint(24), Text(""), Text("a"), Text("ab")]
        + [Text("é"), Text("☃x"), Bytes(b""), Bytes(b"\x00"), Bool(True), Bool(False)]
        + [Null(), Undefined(), Array([]), Array([Uint(0)]), Map([])]
    ),
    st.sampled_from([Simple(v) for v in (0, 3, 15, 16, 17, 19, 32, 255)]),
    st.builds(Uint, st.integers(0, 2**64 - 1)),
    st.builds(Nint, st.integers(0, 300)),
    st.builds(Text, st.text(max_size=4)),
    st.builds(Bytes, st.binary(max_size=3)),
    _floats,
)


def _containers(children):
    return st.one_of(
        st.builds(Array, st.lists(children, max_size=4)),
        st.builds(Map, st.lists(st.tuples(children, children), max_size=3)),
        st.builds(Tag, st.sampled_from([0, 6, 24, 113, 1000]), children),
    )


_trees = st.recursive(_scalars, _containers, max_leaves=24)


@st.composite
def _deep_trees(draw, levels=129):
    """A tree under ``levels`` nested containers of mixed kinds."""
    node = draw(_scalars)
    for kind in draw(st.lists(st.sampled_from("amkt"), min_size=levels, max_size=levels)):
        if kind == "a":
            node = Array([Uint(1), node])
        elif kind == "m":
            node = Map([(Text("k"), node)])
        elif kind == "k":
            node = Map([(node, Null())])
        else:
            node = Tag(6, node)
    return node


@settings(max_examples=400, deadline=None)
@given(st.one_of(_trees, _trees.map(lambda t: Array([t, t])), _deep_trees()))
def test_classify_matches_three_walk_oracle(item):
    assert _outcome(classify, item) == _outcome(_oracle_classify, item)


def _decided_first(tree):
    """``tree`` after a repeated 2-byte text, so that redundancy is decided
    before ``tree`` is walked."""
    return Array([Text("ab"), Text("ab"), tree])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_trees, _deep_trees()).map(_decided_first))
def test_classify_after_an_early_decision_matches_the_oracle(item):
    outcome = _outcome(classify, item)
    assert outcome == _outcome(_oracle_classify, item)
    if isinstance(outcome, TaxonomyRecord):
        assert outcome.redundancy == "redundant"
        assert outcome.encoded_size == cbor.item_size(item)


def _nest(levels):
    node = Text("x")
    for _ in range(levels):
        node = Array([node])
    return node


@pytest.mark.parametrize("late, error", [
    (Map([(Text("\ud800"), Uint(1))]), cbor.InvalidUtf8),
    (_nest(128), cbor.DepthExceeded),
    (Simple(20), cbor.InvalidSimple),
], ids=["lone-surrogate", "too-deep", "simple-20"])
def test_classify_faults_after_an_early_decision(late, error):
    item = _decided_first(late)
    with pytest.raises(error):
        cbor.encode(item)
    with pytest.raises(error):
        classify(item, 100)


def test_classify_depth_bound_after_an_early_decision():
    # The deepest subtree that fits below the decision: its text is 128 levels down.
    item = _decided_first(_nest(127))
    assert classify(item, 100).encoded_size == cbor.item_size(item)


def test_classify_depth_bound_matches_encode():
    leaf = Text("x")
    for levels, wrap in ((128, lambda n: Array([n])), (128, lambda n: Tag(6, n))):
        node = leaf
        for _ in range(levels):
            node = wrap(node)
        assert classify(node, 100) == _oracle_classify(node, 100)
        with pytest.raises(cbor.DepthExceeded):
            classify(wrap(node), 100)
        with pytest.raises(cbor.DepthExceeded):
            cbor.encode(wrap(node))


def test_classify_rejects_lone_surrogate():
    with pytest.raises(cbor.InvalidUtf8):
        classify(Array([Text("ok"), Map([(Text("\ud800"), Uint(1))])]), 100)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_classify_size_is_item_size(item):
    assert classify(item, 100).encoded_size == cbor.item_size(item)
