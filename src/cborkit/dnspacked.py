"""Packed envelope: a prepended table of shared values referenced from the rump.

The packer works on originals, not tree positions: an original is a
distinct string or wide integer (two encoded bytes or more), keyed by
type and value, and its group counts its copies.  Every
candidate that holds one copy holds all (a suffix every text ending in
it, a whole value every equal value, a prefix every byte string starting
with it), so one admission rewrites a whole group, and each group is
priced and counted once, weighted by its copies.

``pack`` runs three steps.  ``_candidates`` groups the originals in one
preorder walk and prices each candidate with two or more occurrences:
exact duplicate scalars (full mode), text suffixes at dot boundaries
(both modes; each distinct text split once), and byte-string prefixes of
three or more bytes (full mode; the longest common prefixes of
neighbours in sorted order).  ``_select`` admits a candidate while its
net saving stays positive,

    saving = sum over unrewritten occurrences (occurrence size - reference size)
             - table entry size,

largest saving first, ties broken by first occurrence in preorder; a
rewritten string never gets rewritten again.  ``_rebuild`` rewrites
every copy of a rewritten original, found by its key: whole values become
``Simple(i)`` (or tag 6 above index 15), suffixes ``tag 216 [head, i]``,
prefixes ``tag 217 [i, tail]``.  The envelope ``tag 113 [table, rump]``
is emitted even when the table is empty, so the no-redundancy penalty is
exactly the four envelope bytes.  Only entries and the texts a suffix
candidate holds are measured in UTF-8, so an unheld text may lack a
UTF-8 form.

``packed_sizes`` gives the size of both envelopes without building
either.  Lite mode's candidates are exactly full mode's suffix
candidates, in the same order, so one candidate pass feeds both
selections.  Every byte the envelope adds or removes is in the savings
and in three heads:

    size = plain size + head(113) + head(2) + head(table length)
           - sum of the savings at admission.

Selection is lazy (Minoux's accelerated greedy) on head-size arithmetic.
An occurrence's term in the saving is its gain (its size less the
index-free part of its reference) less the bytes of the index, which
never shrink as the table grows.  So a saving only falls as the index
grows, and as groups with a non-negative term are rewritten by other
entries.  Candidates sit in a max-heap keyed on (-saving, candidate
order) whose keys are upper bounds: the top is recomputed, admitted if
its saving is unchanged, and pushed back otherwise.  A saving rises only
when a group with a negative term is rewritten (gains of one candidate
differ only by head-width steps, so that needs strings near 64 KiB); the
candidates holding it are then pushed again with a fresh key.  This
picks the same entries, in the same order, as rescanning every candidate
on every admission.  Tag and simple-value numbers are fixed, not IANA's.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from . import cbor
from .cbor import Array, Bytes, CborItem, Map, Nint, Simple, Tag, Text, Uint

PACKED_FULL = "full"
PACKED_LITE = "lite"


class DnsPackedError(Exception):
    pass


class AlreadyPacked(DnsPackedError):
    pass


class IndexOutOfRange(DnsPackedError):
    pass


class ForwardReference(DnsPackedError):
    pass


class TypeMismatch(DnsPackedError):
    pass


class ExpansionLimit(DnsPackedError):
    """An unpack's references would build more than ``MAX_EXPANSION``."""


# Fixed numbers, not IANA assignments.  Simple(i) references table index i
# below SIMPLE_REF_LIMIT; VALUE_TAG carries the index less the limit.
ENVELOPE_TAG = 113
VALUE_TAG = 6
SUFFIX_TAG = 216
PREFIX_TAG = 217
SIMPLE_REF_LIMIT = 16
MIN_PREFIX_LEN = 3
_REFERENCE_TAGS = frozenset((VALUE_TAG, SUFFIX_TAG, PREFIX_TAG))
# Characters and bytes one unpack's suffix and prefix references may build.
MAX_EXPANSION = 16 * 1024 * 1024


@dataclass
class PackedEnvelope:
    table: list[CborItem]
    rump: CborItem

    def to_item(self) -> CborItem:
        return Tag(ENVELOPE_TAG, Array([Array(list(self.table)), self.rump]))

    def encode(self) -> bytes:
        return cbor.encode(self.to_item())

    @classmethod
    def from_item(cls, item: CborItem) -> "PackedEnvelope":
        if not isinstance(item, Tag) or item.number != ENVELOPE_TAG:
            raise TypeMismatch("expected envelope tag %d" % ENVELOPE_TAG)
        body = item.content
        if not isinstance(body, Array) or len(body.items) != 2:
            raise TypeMismatch("envelope must hold [table, rump]")
        table = body.items[0]
        if not isinstance(table, Array):
            raise TypeMismatch("packing table must be an array")
        return cls(list(table.items), body.items[1])

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedEnvelope":
        item, consumed = cbor.decode(data)
        if consumed != len(data):
            raise TypeMismatch("trailing bytes after envelope")
        return cls.from_item(item)


class _Group:
    """One original, its copy count, and the rank of its first occurrence
    among the groups in preorder."""

    __slots__ = ("item", "count", "rank", "length")

    def __init__(self, item: CborItem, rank: int):
        self.item = item
        self.count = 1
        self.rank = rank
        self.length = -1  # payload bytes, taken when a string candidate prices it


def _collect(nodes, groups: dict[object, _Group]) -> None:
    """Preorder walk of ``nodes`` into ``groups`` keyed by value (negative
    for Nint)."""
    for node in nodes:
        kind = type(node)
        # Scalars whose encoding is 2 bytes or more: a non-empty string, or
        # an integer whose argument does not fit the initial byte.
        if kind is Text or kind is Bytes:
            key = node.data
            if not key:
                continue
        elif kind is Uint or kind is Nint:
            key = node.value
            if -25 < key < 24:
                continue
        else:
            if kind is Array:
                _collect(node.items, groups)
            elif kind is Map:
                _collect([part for entry in node.entries for part in entry], groups)
            elif kind is Tag:
                if node.number in _REFERENCE_TAGS:
                    raise AlreadyPacked("input holds reference tag %d" % node.number)
                _collect((node.content,), groups)
            elif kind is Simple and node.value < SIMPLE_REF_LIMIT:
                raise AlreadyPacked("input holds reference simple value %d" % node.value)
            continue
        group = groups.get(key)
        if group is None:
            groups[key] = _Group(node, len(groups))
        else:
            group.count += 1


def _payload_len(string: CborItem) -> int:
    """Payload length in bytes of a Text or Bytes item."""
    data = string.data  # type: ignore[union-attr]
    return len(cbor.utf8(data) if isinstance(data, str) else data)


class _Candidate:
    __slots__ = ("kind", "entry", "groups", "admitted", "entry_size", "gains",
                 "total_gain", "total_live", "gain_sum", "live")

    def __init__(self, kind: str, entry: CborItem, groups: list[_Group]):
        self.kind = kind  # "value" | "suffix" | "prefix"
        self.entry = entry
        self.groups = groups

    def order_key(self) -> tuple:
        # Earliest first occurrence (ranks order groups as their first
        # positions do), then kind, then the entry's encoding.  Within one
        # kind the entries share a major type, and shortest-form heads grow
        # with the length, so the encodings order as (payload length,
        # payload).  Whole values never share a rank.
        data = getattr(self.entry, "data", b"")
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        return (min(group.rank for group in self.groups), self.kind, len(data), data)

    def price(self) -> None:
        """Per group, the bytes a reference to one copy saves before paying
        for its index, and the totals over every copy."""
        self.entry_size = cbor.item_size(self.entry)
        if self.kind == "value":
            self.gains = [self.entry_size]
            self.total_live = self.groups[0].count
            self.total_gain = self.entry_size * self.total_live
        else:
            # tag [head, index] or tag [index, tail]: the tag's head, the
            # array's head and the unshared rest of the string.  So the
            # reference drops the shared bytes and narrows the string's head.
            fixed = cbor.head_size(SUFFIX_TAG if self.kind == "suffix" else PREFIX_TAG) + 1
            shared = _payload_len(self.entry)
            self.gains = []
            total = live = 0
            for group in self.groups:
                n = group.length
                if n < 0:
                    n = group.length = _payload_len(group.item)
                gain = shared + cbor.head_size(n) - cbor.head_size(n - shared) - fixed
                self.gains.append(gain)
                total += gain * group.count
                live += group.count
            self.total_gain, self.total_live = total, live

    def saving(self, index_bytes: dict[str, int]) -> int:
        """Net saving of admitting this entry, given ``_index_bytes`` of its index."""
        return self.gain_sum - self.live * index_bytes[self.kind] - self.entry_size


def _ref_index_size(kind: str, index: int) -> int:
    """Bytes a reference to table ``index`` spends on the index itself."""
    if kind != "value":
        return cbor.head_size(index)
    if index < SIMPLE_REF_LIMIT:
        return 1  # Simple(index) below 24 fits its initial byte
    return cbor.head_size(VALUE_TAG) + cbor.head_size(index - SIMPLE_REF_LIMIT)


# _ref_index_size by kind for the first 256 table indices.
_INDEX_BYTES = [{k: _ref_index_size(k, i) for k in ("value", "suffix", "prefix")} for i in range(256)]


def _index_bytes(index: int) -> dict[str, int]:
    if index < len(_INDEX_BYTES):
        return _INDEX_BYTES[index]
    return {kind: _ref_index_size(kind, index) for kind in _INDEX_BYTES[0]}


def _common_prefix_len(a: bytes, b: bytes) -> int:
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return n
    return min(len(a), len(b))


def _candidates(item: CborItem, mode: str) -> list[_Candidate]:
    groups: dict[object, _Group] = {}
    _collect((item,), groups)
    out: list[_Candidate] = []
    if mode == PACKED_FULL:
        out += [_Candidate("value", g.item, [g]) for g in groups.values() if g.count >= 2]
    suffixes: dict[str, list[_Group]] = {}  # each distinct text split once
    for group in groups.values():
        if type(group.item) is Text:
            text = group.item.data
            start = 0
            while start < len(text):  # the whole text, then after each dot
                suffixes.setdefault(text[start:], []).append(group)
                start = text.find(".", start) + 1 or len(text)
    for suffix, holding in suffixes.items():
        if len(holding) >= 2 or holding[0].count >= 2:
            out.append(_Candidate("suffix", Text(suffix), holding))
    if mode == PACKED_FULL:
        # In sorted order the longest common prefix of any two strings is
        # the shortest of the neighbour prefixes between them, and that pair
        # shares exactly it (a string held twice is its own neighbour); so
        # these are all the pairwise prefixes, and the strings that start
        # with one form a run that begins where the prefix would sort.
        strings = sorted((g.item.data, g) for g in groups.values()
                         if type(g.item) is Bytes and len(g.item.data) >= MIN_PREFIX_LEN)
        datas = [data for data, _ in strings]
        prefixes = {data for data, group in strings if group.count >= 2}
        for a, b in zip(datas, datas[1:]):
            n = _common_prefix_len(a, b)
            if n >= MIN_PREFIX_LEN:
                prefixes.add(a[:n])
        for prefix in prefixes:
            holding = []
            for k in range(bisect_left(datas, prefix), len(datas)):
                if not datas[k].startswith(prefix):
                    break
                holding.append(strings[k][1])
            out.append(_Candidate("prefix", Bytes(prefix), holding))
    # Deterministic ordering independent of hash seeds.
    out.sort(key=_Candidate.order_key)
    for cand in out:
        cand.price()
    return out


def _reference_item(cand: _Candidate, original: CborItem, index: int) -> CborItem:
    if cand.kind == "value":
        if index < SIMPLE_REF_LIMIT:
            return Simple(index)
        return Tag(VALUE_TAG, Uint(index - SIMPLE_REF_LIMIT))
    if cand.kind == "suffix":
        head = original.data[: len(original.data) - len(cand.entry.data)]  # type: ignore[union-attr]
        return Tag(SUFFIX_TAG, Array([Text(head), Uint(index)]))
    tail = original.data[len(cand.entry.data) :]  # type: ignore[union-attr]
    return Tag(PREFIX_TAG, Array([Uint(index), Bytes(tail)]))


class _Admission(NamedTuple):
    cand: _Candidate
    index: int  # table index
    saving: int  # net saving at admission


def _select(candidates: list[_Candidate]) -> tuple[list[_Admission], dict[_Group, _Admission]]:
    """The lazy greedy over priced candidates: the admissions in table
    order, and for each rewritten group the admission that rewrites it
    (the first admitted that holds it)."""
    holders: dict[_Group, list[tuple[int, int]]] = {}  # group -> (candidate, gain)
    for order, cand in enumerate(candidates):
        cand.admitted, cand.gain_sum, cand.live = False, cand.total_gain, cand.total_live
        for group, gain in zip(cand.groups, cand.gains):
            holders.setdefault(group, []).append((order, gain))
    # Each live candidate keeps a heap entry whose key is no lower than
    # its saving (see the module docstring), so a top whose recomputed
    # saving still equals its key beats every other candidate, ties going
    # to the earlier one.
    index_bytes = _index_bytes(0)
    heap = [(-cand.saving(index_bytes), order) for order, cand in enumerate(candidates)]
    heapq.heapify(heap)
    admissions: list[_Admission] = []
    rewrites: dict[_Group, _Admission] = {}
    while heap and heap[0][0] < 0:
        key, order = heap[0]
        cand = candidates[order]
        if cand.admitted:
            heapq.heappop(heap)
            continue
        saving = cand.saving(index_bytes)
        if saving != -key:
            heapq.heapreplace(heap, (-saving, order))
            continue
        heapq.heappop(heap)
        cand.admitted = True
        admission = _Admission(cand, len(admissions), saving)
        admissions.append(admission)
        index_bytes = _index_bytes(len(admissions))
        risen: set[int] = set()
        for group in cand.groups:
            if group in rewrites:
                continue
            rewrites[group] = admission
            for other, gain in holders[group]:
                holder = candidates[other]
                holder.gain_sum -= gain * group.count
                holder.live -= group.count
                if gain < index_bytes[holder.kind]:
                    risen.add(other)
        for other in risen:
            if not candidates[other].admitted:
                heapq.heappush(heap, (-candidates[other].saving(index_bytes), other))
    return admissions, rewrites


def pack(item: CborItem, mode: str = PACKED_FULL) -> PackedEnvelope:
    if mode not in (PACKED_FULL, PACKED_LITE):
        raise DnsPackedError("unknown packing mode %r" % mode)
    admissions, rewrites = _select(_candidates(item, mode))
    table = [admission.cand.entry for admission in admissions]
    by_key = {getattr(g.item, "data", None) or g.item.value: a for g, a in rewrites.items()}
    return PackedEnvelope(table, _rebuild(item, by_key))


# tag 113 [table, rump]: the tag's head and the two-element array's head.
_ENVELOPE_OVERHEAD = cbor.head_size(ENVELOPE_TAG) + cbor.head_size(2)


def packed_sizes(item: CborItem, plain_size: int) -> dict[str, int]:
    """``len(pack(item, mode).encode())`` for both modes, where
    ``plain_size`` is the encoded size of ``item``, without building
    either envelope.  That precondition means ``item`` encodes, so every
    text string in it is valid UTF-8."""
    full = _candidates(item, PACKED_FULL)
    lite = [cand for cand in full if cand.kind == "suffix"]
    sizes = {}
    for mode, candidates in ((PACKED_LITE, lite), (PACKED_FULL, full)):
        admissions, _ = _select(candidates)
        sizes[mode] = (
            plain_size
            + _ENVELOPE_OVERHEAD
            + cbor.head_size(len(admissions))
            - sum(admission.saving for admission in admissions)
        )
    return sizes


def _rebuild(item: CborItem, rewrites: dict[object, _Admission]) -> CborItem:
    kind = type(item)
    if kind is Array:
        return Array([_rebuild(c, rewrites) for c in item.items])
    if kind is Map:
        return Map(
            [
                (_rebuild(k, rewrites), _rebuild(v, rewrites))
                for k, v in item.entries
            ]
        )
    if kind is Tag:
        return Tag(item.number, _rebuild(item.content, rewrites))
    if kind is Text or kind is Bytes:
        admission = rewrites.get(item.data)
    elif kind is Uint or kind is Nint:
        admission = rewrites.get(item.value)
    else:
        return item
    return item if admission is None else _reference_item(admission.cand, item, admission.index)


def unpack(env: PackedEnvelope) -> CborItem:
    resolved: list[CborItem] = []
    budget = [MAX_EXPANSION]
    try:
        for entry in env.table:
            resolved.append(_resolve(entry, resolved, budget))
    except IndexOutOfRange as exc:
        raise ForwardReference("table entry %d: %s" % (len(resolved), exc)) from exc
    return _resolve(env.rump, resolved, budget)


def _lookup(table: list[CborItem], index: int) -> CborItem:
    if index >= len(table):
        raise IndexOutOfRange("reference %d but table holds %d entries" % (index, len(table)))
    return table[index]


def _resolve(item: CborItem, table: list[CborItem], budget: list[int]) -> CborItem:
    kind = type(item)
    if kind is Array:
        return Array([_resolve(c, table, budget) for c in item.items])
    if kind is Simple and item.value < SIMPLE_REF_LIMIT:
        return _lookup(table, item.value)
    if kind is Tag:
        if item.number == VALUE_TAG:
            content = item.content
            if not isinstance(content, Uint):
                raise TypeMismatch("value reference must carry an unsigned index")
            return _lookup(table, content.value + SIMPLE_REF_LIMIT)
        if item.number == SUFFIX_TAG or item.number == PREFIX_TAG:
            return _join(item, table, budget)
        return Tag(item.number, _resolve(item.content, table, budget))
    if kind is Map:
        return Map(
            [
                (_resolve(k, table, budget), _resolve(v, table, budget))
                for k, v in item.entries
            ]
        )
    return item


def _join(ref: Tag, table: list[CborItem], budget: list[int]) -> CborItem:
    """The string a suffix or prefix reference builds, taken from ``budget``."""
    content = ref.content
    if not isinstance(content, Array) or len(content.items) != 2:
        raise TypeMismatch("reference tag must carry a two-element array")
    a, b = content.items
    if ref.number == SUFFIX_TAG:
        if not isinstance(a, Text) or not isinstance(b, Uint):
            raise TypeMismatch("suffix reference must be [head text, index]")
        target = _lookup(table, b.value)
        if not isinstance(target, Text):
            raise TypeMismatch("suffix reference to a non-text entry")
        joined = Text(a.data + target.data)
    else:
        if not isinstance(a, Uint) or not isinstance(b, Bytes):
            raise TypeMismatch("prefix reference must be [index, tail bytes]")
        target = _lookup(table, a.value)
        if not isinstance(target, Bytes):
            raise TypeMismatch("prefix reference to a non-bytes entry")
        joined = Bytes(target.data + b.data)
    budget[0] -= len(joined.data)
    if budget[0] < 0:
        raise ExpansionLimit("references build more than %d characters and bytes" % MAX_EXPANSION)
    return joined
