"""Byte savings/gain metrics and the object taxonomy.

``compute_savings`` gives the absolute saving b = original - encoded and
the relative gain g = b / original.  ``classify`` buckets an item by
size tier, dominant content type (including byte strings and tags as
their own classes), value redundancy and nesting.

The prevalence and redundancy rules are explicit stand-ins: map keys
count as leaves, and duplicates only count as redundancy when their
encoding is at least 2 bytes.

``classify`` makes one post-order pass over the item.  Until redundancy
is decided, each node's encoding is built as its head followed by its
children's encodings, so every subtree is encoded once rather than once
per ancestor, and each distinct text is encoded once however often it
recurs (map keys repeat across records); after that, it adds up sizes
only.  The same pass counts content types and notes a container inside a
container (tags are transparent).  Redundancy is keyed on the encoding
under the default ``EncodeOptions`` rather than on a structural hash of
the values.  The encoding is exact where such a hash is not: every NaN
encodes as the one canonical NaN, while ``-0.0`` equals ``0.0`` as a
value, and a float's preferred width changes its bytes but not its
value.  The pass raises what ``cbor.encode`` raises, and the root's size
is the item's size under the default options.  A JSON document's float
widths are set by ``jsonbridge.json_to_cbor``, so that size holds under
every float mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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

_flat = chain.from_iterable


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
# Indices into CONTENT_TYPES; a tie goes to the lowest.
_TEXTUAL, _NUMERIC, _BINARY, _TAGGY, _BOOLEAN, _STRUCTURAL = range(len(CONTENT_TYPES))

_LEAF_CONTENT = {
    Nint: _NUMERIC,
    Float: _NUMERIC,
    Bool: _BOOLEAN,
    Null: _BOOLEAN,
    Undefined: _BOOLEAN,
    Bytes: _BINARY,
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
    counts = [0] * len(CONTENT_TYPES)
    seen: set[bytes] = set()
    texts: dict[str, bytes] = {}
    redundant = nested = False

    def walk(nodes, depth: int, inside: bool) -> tuple[int, bytes | None]:
        # Returns the size of ``nodes``, siblings at ``depth``, under the
        # default EncodeOptions, and their joined encoding, or None once
        # ``redundant`` is set; ``inside`` says whether an array or map
        # encloses them.  Only called with at least one node.
        nonlocal redundant, nested
        if depth < 0:
            raise cbor.DepthExceeded("item tree deeper than %d" % cbor.DEFAULT_MAX_DEPTH)
        total = textual = 0
        parts = []
        for node in nodes:
            kind = type(node)
            if kind is Text:
                # Only texts encode with major type 3: ``texts`` is all a text can repeat.
                textual += 1
                encoded = texts.get(node.data)
                if encoded is None:
                    encoded = texts[node.data] = cbor.text_encoding(node.data)
                elif len(encoded) >= 2:
                    redundant = True
                total += len(encoded)
                if not redundant:
                    parts.append(encoded)
                continue
            # A container or Uint is its head, then ``inner`` of ``size``
            # bytes; any other leaf is ``inner`` alone (``major`` None).
            if kind is Map:
                nested = nested or inside
                content, major, argument = _STRUCTURAL, 5, len(node.entries)
                size, inner = walk(_flat(node.entries), depth - 1, True) if argument else (0, b"")
            elif kind is Uint:
                content, major, argument, size, inner = _NUMERIC, 0, node.value, 0, b""
            elif kind is Array:
                nested = nested or inside
                content, major, argument = _STRUCTURAL, 4, len(node.items)
                size, inner = walk(node.items, depth - 1, True) if argument else (0, b"")
            elif kind is Tag:
                content, major, argument = _TAGGY, 6, node.number
                size, inner = walk((node.content,), depth - 1, inside)
            else:
                inner = cbor.encode(node)
                major, size = None, len(inner)
                if kind is Simple:
                    # Simple values below the limit are packed-table references.
                    content = _TAGGY if node.value < SIMPLE_REF_LIMIT else _NUMERIC
                else:
                    content = _LEAF_CONTENT[kind]
            counts[content] += 1
            if major is not None:
                size += cbor.head_size(argument)
            total += size
            if redundant:
                continue
            encoded = inner if major is None else cbor.head(major, argument) + inner
            if size >= 2:
                if encoded in seen:
                    redundant = True
                else:
                    seen.add(encoded)
            parts.append(encoded)
        counts[_TEXTUAL] += textual
        return total, None if redundant else b"".join(parts)

    size, _ = walk((item,), cbor.DEFAULT_MAX_DEPTH, False)
    return TaxonomyRecord(
        tier=size_tier(original_size),
        content_type=CONTENT_TYPES[counts.index(max(counts))],
        redundancy="redundant" if redundant else "non_redundant",
        structure="nested" if nested else "flat",
        encoded_size=size,
    )
