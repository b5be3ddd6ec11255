"""Byte savings/gain metrics and the object taxonomy.

``compute_savings`` gives the absolute saving b = original - encoded and
the relative gain g = b / original.  ``classify`` buckets an item by
size tier, dominant content type (including byte strings and tags as
their own classes), value redundancy and nesting.

The prevalence and redundancy rules are explicit stand-ins: map keys
count as leaves, and duplicates only count as redundancy when their
encoding is at least 2 bytes.

``classify`` makes one post-order pass over the item.  Each node's
encoding is built as its head followed by its children's encodings, so
every subtree is encoded once rather than once per ancestor, and each
distinct text is encoded once however often it recurs (map keys repeat
across records).  The same pass counts content types and notes a
container inside a container (tags are transparent).  Redundancy is
keyed on that encoding under the default ``EncodeOptions`` rather than on
a structural hash of the values.  The encoding is exact where such a hash
is not: every NaN encodes as the one canonical NaN, while ``-0.0`` equals
``0.0`` as a value, and a float's preferred width changes its bytes but
not its value.  The pass enforces ``cbor.DEFAULT_MAX_DEPTH`` as
``cbor.encode`` does, and the root encoding's length is the item's size
under the default options.  A JSON document's float widths are set by
``jsonbridge.json_to_cbor``, so that size holds under every float mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # The item's CBOR size, a by-product of the walk and not a class.
    encoded_size: int = field(default=0, compare=False)


def size_tier(size: int) -> int:
    if size < TIER_1_LIMIT:
        return 1
    if size < TIER_2_LIMIT:
        return 2
    return 3


def classify(item: CborItem, original_size: int) -> TaxonomyRecord:
    """``original_size`` sets the tier; ``encoded_size`` on the record is
    ``cbor.item_size(item)``."""
    counts = dict.fromkeys(CONTENT_TYPES, 0)
    seen: set[bytes] = set()
    texts: dict[str, bytes] = {}
    redundant = nested = False

    def walk(nodes, depth: int, inside: bool) -> bytes:
        # Returns the encodings of ``nodes``, siblings at ``depth``, under
        # the default EncodeOptions, joined; ``inside`` says whether an
        # array or map encloses them.
        nonlocal redundant, nested
        if depth < 0 and nodes:
            raise cbor.DepthExceeded("item tree deeper than %d" % cbor.DEFAULT_MAX_DEPTH)
        parts = []
        for node in nodes:
            kind = type(node)
            if kind is Text:
                # Only texts encode with major type 3: ``texts`` is all a text can repeat.
                counts["textual"] += 1
                encoded = texts.get(node.data)
                if encoded is None:
                    encoded = texts[node.data] = cbor.text_encoding(node.data)
                elif len(encoded) >= 2:
                    redundant = True
                parts.append(encoded)
                continue
            if kind is Map:
                nested = nested or inside
                content = "structural"
                encoded = cbor.head(5, len(node.entries)) + walk(
                    [x for pair in node.entries for x in pair], depth - 1, True
                )
            elif kind is Uint:
                content = "numeric"
                encoded = cbor.head(0, node.value)
            elif kind is Array:
                nested = nested or inside
                content = "structural"
                encoded = cbor.head(4, len(node.items)) + walk(node.items, depth - 1, True)
            elif kind is Tag:
                content = "taggy"
                encoded = cbor.head(6, node.number) + walk((node.content,), depth - 1, inside)
            else:
                encoded = cbor.encode(node)
                if kind is Simple:
                    # Simple values below the limit are packed-table references.
                    content = "taggy" if node.value < SIMPLE_REF_LIMIT else "numeric"
                else:
                    content = _LEAF_CONTENT[kind]
            counts[content] += 1
            if len(encoded) >= 2:
                if encoded in seen:
                    redundant = True
                else:
                    seen.add(encoded)
            parts.append(encoded)
        return b"".join(parts)

    root = walk((item,), cbor.DEFAULT_MAX_DEPTH, False)
    winner = max(CONTENT_TYPES, key=lambda t: (counts[t], -CONTENT_TYPES.index(t)))
    return TaxonomyRecord(
        tier=size_tier(original_size),
        content_type=winner,
        redundancy="redundant" if redundant else "non_redundant",
        structure="nested" if nested else "flat",
        encoded_size=len(root),
    )
