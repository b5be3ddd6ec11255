"""Byte savings/gain metrics and the object taxonomy.

``compute_savings`` gives the absolute saving b = original - encoded and
the relative gain g = b / original.  ``classify`` buckets an item by
size tier, dominant content type (including byte strings and tags as
their own classes), value redundancy and nesting.

The prevalence and redundancy rules are explicit stand-ins: map keys
count as leaves, and duplicates only count as redundancy when their
encoding is at least 2 bytes.

``classify`` makes one post-order pass over the item.  Each node returns
its encoding, built as its head followed by its children's encodings, so
every subtree is encoded once rather than once per ancestor.  The same
pass counts content types and notes a container inside a container
(tags are transparent).  Redundancy is keyed on that encoding under the
default ``EncodeOptions`` rather than on a structural hash of the
values.  The encoding is exact where such a hash is not: every NaN
encodes as the one canonical NaN, while ``-0.0`` equals ``0.0`` as a
value, and a float's preferred width changes its bytes but not its
value.  The pass enforces ``cbor.DEFAULT_MAX_DEPTH`` as ``cbor.encode``
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cbor
from .cbor import (
    Array,
    Bool,
    Bytes,
    CborItem,
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
from .dnspacked import SIMPLE_REF_LIMIT


class TaxonomyError(Exception):
    pass


class ZeroOriginal(TaxonomyError):
    pass


@dataclass(frozen=True)
class SavingsReport:
    original_size: int
    encoded_size: int
    savings_b: int
    gain_g: float


def compute_savings(original_size: int, encoded_size: int) -> SavingsReport:
    if original_size <= 0:
        raise ZeroOriginal("original size must be positive, got %d" % original_size)
    b = original_size - encoded_size
    return SavingsReport(original_size, encoded_size, b, b / original_size)


TIER_1_LIMIT = 100
TIER_2_LIMIT = 1000

CONTENT_TYPES = ("textual", "numeric", "binary", "taggy", "boolean", "structural")

_LEAF_CONTENT = {
    Text: "textual",
    Uint: "numeric",
    Nint: "numeric",
    Float: "numeric",
    Bool: "boolean",
    Null: "boolean",
    Undefined: "boolean",
    Bytes: "binary",
}


@dataclass(frozen=True)
class TaxonomyRecord:
    tier: int
    content_type: str
    redundancy: str
    structure: str


def size_tier(size: int) -> int:
    if size < TIER_1_LIMIT:
        return 1
    if size < TIER_2_LIMIT:
        return 2
    return 3


def classify(item: CborItem, encoded_size: int) -> TaxonomyRecord:
    counts = dict.fromkeys(CONTENT_TYPES, 0)
    seen: set[bytes] = set()
    redundant = nested = False

    def visit(node: CborItem, depth: int, inside: bool) -> bytes:
        # Returns the node's encoding under the default EncodeOptions;
        # ``inside`` says whether an array or map encloses the node.
        nonlocal redundant, nested
        if depth < 0:
            raise cbor.DepthExceeded("item tree deeper than %d" % cbor.DEFAULT_MAX_DEPTH)
        if isinstance(node, Text) and node.data.isascii():
            # Most JSON leaves are ASCII text, whose length in bytes is its
            # length in characters.
            kind = "textual"
            encoded = cbor.head(3, len(node.data)) + node.data.encode("ascii")
        elif isinstance(node, Array):
            nested = nested or inside
            kind = "structural"
            encoded = cbor.head(4, len(node.items)) + b"".join(
                [visit(child, depth - 1, True) for child in node.items]
            )
        elif isinstance(node, Map):
            nested = nested or inside
            kind = "structural"
            encoded = cbor.head(5, len(node.entries)) + b"".join(
                [visit(x, depth - 1, True) for pair in node.entries for x in pair]
            )
        elif isinstance(node, Tag):
            kind = "taggy"
            encoded = cbor.head(6, node.number) + visit(node.content, depth - 1, inside)
        else:
            # Every other leaf, including text that may hold a lone
            # surrogate, which cbor.encode rejects with InvalidUtf8.
            encoded = cbor.encode(node)
            if isinstance(node, Simple):
                # Simple values below the limit are packed-table references.
                kind = "taggy" if node.value < SIMPLE_REF_LIMIT else "numeric"
            else:
                kind = _LEAF_CONTENT[type(node)]
        counts[kind] += 1
        if len(encoded) >= 2:
            if encoded in seen:
                redundant = True
            else:
                seen.add(encoded)
        return encoded

    visit(item, cbor.DEFAULT_MAX_DEPTH, False)
    winner = max(CONTENT_TYPES, key=lambda t: (counts[t], -CONTENT_TYPES.index(t)))
    return TaxonomyRecord(
        tier=size_tier(encoded_size),
        content_type=winner,
        redundancy="redundant" if redundant else "non_redundant",
        structure="nested" if nested else "flat",
    )
