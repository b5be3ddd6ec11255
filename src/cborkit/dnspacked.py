"""Packed envelope: a prepended table of shared values referenced from the rump.

``pack`` runs three steps.  ``_candidates`` enumerates candidates over
the item tree and prices each one: exact duplicate scalars (full mode),
text suffixes at dot boundaries shared by two or more strings (both
modes), and byte-string prefixes of three or more bytes shared by two or
more strings (full mode; the longest common prefixes of neighbours in
sorted order).  ``_select`` admits a candidate while its net saving stays
positive,

    saving = sum over unrewritten occurrences (occurrence size - reference size)
             - table entry size,

largest saving first, ties broken by first occurrence in preorder; a
rewritten string never gets rewritten again.  ``_rebuild`` substitutes
the references: whole values become ``Simple(i)`` (or tag 6 above index
15), suffixes ``tag 216 [head, i]``, prefixes ``tag 217 [i, tail]``.  The
envelope ``tag 113 [table, rump]`` is emitted even when the table is
empty, so the no-redundancy penalty is exactly the four envelope bytes.

``packed_sizes`` gives the size of both envelopes without building
either.  Lite mode's candidates are exactly full mode's suffix
candidates, in the same order, so one candidate pass feeds both
selections.  Every byte the envelope adds or removes is in the savings
and in three heads:

    size = plain size + head(113) + head(2) + head(table length)
           - sum of the savings at admission.

Selection is lazy (Minoux's accelerated greedy) and sizes come from
arithmetic on head sizes, not from building references.  An occurrence's
term in the saving is its gain (its size less the index-free part of its
reference, computed once) less the bytes of the index, which never
shrink as the table grows.  So a saving only falls as the index grows,
and as occurrences with a non-negative term are rewritten by other
entries.  Candidates sit in a max-heap keyed on (-saving, candidate
order) whose keys are upper bounds: the top is recomputed, admitted if
its saving is unchanged, and pushed back otherwise.  The one way a
saving can rise is the rewrite of an occurrence whose term is negative;
the candidates holding it are then pushed again with a fresh key.  (The
gains of one candidate differ only by head-width steps, so that needs
strings near 64 KiB.)  This picks the same entries, in the same order,
as rescanning every candidate on every admission.

Lite mode keeps only the text-suffix candidates, so its table is all
text strings.  The tag and simple-value numbers are fixed numbers, not
IANA assignments.
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


# Fixed numbers, not IANA assignments.  Simple(i) references table index i
# below SIMPLE_REF_LIMIT; VALUE_TAG carries the index less the limit.
ENVELOPE_TAG = 113
VALUE_TAG = 6
SUFFIX_TAG = 216
PREFIX_TAG = 217
SIMPLE_REF_LIMIT = 16
MIN_PREFIX_LEN = 3
_REFERENCE_TAGS = frozenset((VALUE_TAG, SUFFIX_TAG, PREFIX_TAG))


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


def _walk(item: CborItem, positions: list[CborItem]) -> None:
    """Preorder enumeration; a node's position is its list index.  Input
    that already holds a packing reference is rejected on the way."""
    positions.append(item)
    if isinstance(item, Array):
        for child in item.items:
            _walk(child, positions)
    elif isinstance(item, Map):
        for key, value in item.entries:
            _walk(key, positions)
            _walk(value, positions)
    elif isinstance(item, Tag):
        if item.number in _REFERENCE_TAGS:
            raise AlreadyPacked("input holds reference tag %d" % item.number)
        _walk(item.content, positions)
    elif isinstance(item, Simple) and item.value < SIMPLE_REF_LIMIT:
        raise AlreadyPacked("input holds reference simple value %d" % item.value)


def _dot_suffixes(text: str) -> list[tuple[str, str]]:
    """(head, suffix) splits at component boundaries, whole string included."""
    splits = [("", text)]
    for i, ch in enumerate(text):
        if ch == "." and i + 1 < len(text):
            splits.append((text[: i + 1], text[i + 1 :]))
    return splits


def _payload_len(string: CborItem) -> int:
    """Payload length in bytes of a Text or Bytes item."""
    data = string.data  # type: ignore[union-attr]
    return len(cbor.utf8(data) if isinstance(data, str) else data)


class _Candidate:
    __slots__ = (
        "kind", "entry", "occurrences", "first", "admitted",
        "entry_size", "gains", "gain_sum", "live",
    )

    def __init__(self, kind: str, entry: CborItem, occurrences: dict[int, CborItem]):
        self.kind = kind  # "value" | "suffix" | "prefix"
        self.entry = entry
        self.occurrences = occurrences  # position -> original item there
        self.first = min(occurrences)

    def order_key(self) -> tuple:
        # Earliest occurrence, then kind, then the entry's encoding.  Within
        # one kind the entries share a major type, and shortest-form heads
        # grow with the length, so the encodings order as (payload length,
        # payload).  Whole values never share a first position.
        data = getattr(self.entry, "data", b"")
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        return (self.first, self.kind, len(data), data)

    def price(self) -> None:
        """Per occurrence, the bytes a reference saves before its index
        is paid for: the original's size less the rest of the reference."""
        self.entry_size = cbor.item_size(self.entry)
        if self.kind == "value":
            self.gains = dict.fromkeys(self.occurrences, self.entry_size)
        else:
            # tag [head, index] or tag [index, tail]: the tag's head, the
            # array's head and the unshared rest of the string.  So the
            # reference drops the shared bytes and narrows the string's head.
            tag = SUFFIX_TAG if self.kind == "suffix" else PREFIX_TAG
            fixed = cbor.head_size(tag) + 1
            shared = _payload_len(self.entry)
            self.gains = {}
            for pos, original in self.occurrences.items():
                n = _payload_len(original)
                narrowed = cbor.head_size(n) - cbor.head_size(n - shared)
                self.gains[pos] = shared + narrowed - fixed

    def reset(self) -> None:
        """Start a selection run: nothing admitted, nothing rewritten."""
        self.admitted = False
        self.gain_sum = sum(self.gains.values())
        self.live = len(self.gains)

    def saving(self, index: int) -> int:
        """Net saving of admitting this entry at ``index`` now."""
        return self.gain_sum - self.live * _ref_index_size(self.kind, index) - self.entry_size


def _ref_index_size(kind: str, index: int) -> int:
    """Bytes a reference to table ``index`` spends on the index itself."""
    if kind != "value":
        return cbor.head_size(index)
    if index < SIMPLE_REF_LIMIT:
        return 1  # Simple(index) below 24 fits its initial byte
    return cbor.head_size(VALUE_TAG) + cbor.head_size(index - SIMPLE_REF_LIMIT)


def _value_ref(index: int) -> CborItem:
    if index < SIMPLE_REF_LIMIT:
        return Simple(index)
    return Tag(VALUE_TAG, Uint(index - SIMPLE_REF_LIMIT))


def _common_prefix_len(a: bytes, b: bytes) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _candidates(item: CborItem, mode: str) -> list[_Candidate]:
    positions: list[CborItem] = []
    _walk(item, positions)
    out: list[_Candidate] = []
    if mode == PACKED_FULL:
        values: dict[CborItem, dict[int, CborItem]] = {}
        for pos, node in enumerate(positions):
            # Scalars whose encoding is 2 bytes or more: a non-empty string,
            # or an integer whose argument does not fit the initial byte.
            if (
                isinstance(node, (Text, Bytes)) and node.data
                or isinstance(node, Uint) and node.value >= 24
                or isinstance(node, Nint) and node.n >= 24
            ):
                values.setdefault(node, {})[pos] = node
        for node, occs in values.items():
            if len(occs) >= 2:
                out.append(_Candidate("value", node, occs))
    suffixes: dict[str, dict[int, CborItem]] = {}
    for pos, node in enumerate(positions):
        if isinstance(node, Text) and node.data:
            for _, suffix in _dot_suffixes(node.data):
                suffixes.setdefault(suffix, {})[pos] = node
    for suffix, occs in suffixes.items():
        if len(occs) >= 2:
            out.append(_Candidate("suffix", Text(suffix), occs))
    if mode == PACKED_FULL:
        # In sorted order the longest common prefix of any two strings is
        # the shortest of the neighbour prefixes between them, and that
        # neighbour pair shares exactly it; so the neighbour prefixes are
        # all the pairwise ones, and the strings that start with one of
        # them form a run that begins where the prefix itself would sort.
        strings = sorted(
            (node.data, pos)
            for pos, node in enumerate(positions)
            if isinstance(node, Bytes) and len(node.data) >= MIN_PREFIX_LEN
        )
        datas = [data for data, _ in strings]
        prefixes: set[bytes] = set()
        for a, b in zip(datas, datas[1:]):
            n = _common_prefix_len(a, b)
            if n >= MIN_PREFIX_LEN:
                prefixes.add(a[:n])
        for prefix in prefixes:
            occs: dict[int, CborItem] = {}
            for k in range(bisect_left(datas, prefix), len(datas)):
                if not datas[k].startswith(prefix):
                    break
                pos = strings[k][1]
                occs[pos] = positions[pos]
            out.append(_Candidate("prefix", Bytes(prefix), occs))
    # Deterministic ordering independent of hash seeds.
    out.sort(key=_Candidate.order_key)
    for cand in out:
        cand.price()
    return out


def _reference_item(cand: _Candidate, original: CborItem, index: int) -> CborItem:
    if cand.kind == "value":
        return _value_ref(index)
    if cand.kind == "suffix":
        head = original.data[: len(original.data) - len(cand.entry.data)]  # type: ignore[union-attr]
        return Tag(SUFFIX_TAG, Array([Text(head), Uint(index)]))
    tail = original.data[len(cand.entry.data) :]  # type: ignore[union-attr]
    return Tag(PREFIX_TAG, Array([Uint(index), Bytes(tail)]))


class _Admission(NamedTuple):
    cand: _Candidate
    index: int  # table index
    saving: int  # net saving at admission


def _select(candidates: list[_Candidate]) -> tuple[list[_Admission], dict[int, _Admission]]:
    """The lazy greedy over priced candidates: the admissions in table
    order, and for each rewritten position the admission that rewrites
    it (the first admitted that holds it)."""
    holders: dict[int, list[int]] = {}  # position -> candidates holding it
    for order, cand in enumerate(candidates):
        cand.reset()
        for pos in cand.occurrences:
            holders.setdefault(pos, []).append(order)
    # Each live candidate keeps a heap entry whose key is no lower than
    # its saving (see the module docstring), so a top whose recomputed
    # saving still equals its key beats every other candidate, ties going
    # to the earlier one.
    heap = [(-cand.saving(0), order) for order, cand in enumerate(candidates)]
    heapq.heapify(heap)
    admissions: list[_Admission] = []
    rewrites: dict[int, _Admission] = {}
    while heap and heap[0][0] < 0:
        key, order = heap[0]
        cand = candidates[order]
        if cand.admitted:
            heapq.heappop(heap)
            continue
        index = len(admissions)
        saving = cand.saving(index)
        if saving != -key:
            heapq.heapreplace(heap, (-saving, order))
            continue
        heapq.heappop(heap)
        cand.admitted = True
        admission = _Admission(cand, index, saving)
        admissions.append(admission)
        next_index = index + 1
        risen: set[int] = set()
        for pos in cand.occurrences:
            if pos in rewrites:
                continue
            rewrites[pos] = admission
            for other in holders[pos]:
                holder = candidates[other]
                gain = holder.gains[pos]
                holder.gain_sum -= gain
                holder.live -= 1
                if gain < _ref_index_size(holder.kind, next_index):
                    risen.add(other)
        for other in risen:
            if not candidates[other].admitted:
                heapq.heappush(heap, (-candidates[other].saving(next_index), other))
    return admissions, rewrites


def pack(item: CborItem, mode: str = PACKED_FULL) -> PackedEnvelope:
    if mode not in (PACKED_FULL, PACKED_LITE):
        raise DnsPackedError("unknown packing mode %r" % mode)
    admissions, rewrites = _select(_candidates(item, mode))
    table = [admission.cand.entry for admission in admissions]
    return PackedEnvelope(table, _rebuild(item, rewrites, [0]))


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


def _rebuild(item: CborItem, rewrites: dict[int, _Admission], counter: list[int]) -> CborItem:
    pos = counter[0]
    counter[0] += 1
    admission = rewrites.get(pos)
    if admission is not None:  # only leaves are rewritten
        return _reference_item(admission.cand, item, admission.index)
    if isinstance(item, Array):
        return Array([_rebuild(c, rewrites, counter) for c in item.items])
    if isinstance(item, Map):
        return Map(
            [
                (_rebuild(k, rewrites, counter), _rebuild(v, rewrites, counter))
                for k, v in item.entries
            ]
        )
    if isinstance(item, Tag):
        return Tag(item.number, _rebuild(item.content, rewrites, counter))
    return item


def unpack(env: PackedEnvelope) -> CborItem:
    resolved: list[CborItem] = []
    for entry in env.table:
        resolved.append(_resolve(entry, resolved, in_table=True))
    return _resolve(env.rump, resolved, in_table=False)


def _resolve(item: CborItem, table: list[CborItem], in_table: bool) -> CborItem:
    def lookup(index: int) -> CborItem:
        if index >= len(table):
            if in_table:
                raise ForwardReference(
                    "table entry references index %d at or past itself" % index
                )
            raise IndexOutOfRange(
                "reference %d but table holds %d entries" % (index, len(table))
            )
        return table[index]

    if isinstance(item, Simple) and item.value < SIMPLE_REF_LIMIT:
        return lookup(item.value)
    if isinstance(item, Tag):
        if item.number == VALUE_TAG:
            content = item.content
            if not isinstance(content, Uint):
                raise TypeMismatch("value reference must carry an unsigned index")
            return lookup(content.value + SIMPLE_REF_LIMIT)
        if item.number == SUFFIX_TAG:
            head, index = _ref_pair(item.content, first_text=True)
            target = lookup(index)
            if not isinstance(target, Text):
                raise TypeMismatch("suffix reference to a non-text entry")
            return Text(head + target.data)
        if item.number == PREFIX_TAG:
            tail, index = _ref_pair(item.content, first_text=False)
            target = lookup(index)
            if not isinstance(target, Bytes):
                raise TypeMismatch("prefix reference to a non-bytes entry")
            return Bytes(target.data + tail)
        return Tag(item.number, _resolve(item.content, table, in_table))
    if isinstance(item, Array):
        return Array([_resolve(c, table, in_table) for c in item.items])
    if isinstance(item, Map):
        return Map(
            [
                (_resolve(k, table, in_table), _resolve(v, table, in_table))
                for k, v in item.entries
            ]
        )
    return item


def _ref_pair(content: CborItem, first_text: bool):
    if not isinstance(content, Array) or len(content.items) != 2:
        raise TypeMismatch("reference tag must carry a two-element array")
    a, b = content.items
    if first_text:
        if not isinstance(a, Text) or not isinstance(b, Uint):
            raise TypeMismatch("suffix reference must be [head text, index]")
        return a.data, b.value
    if not isinstance(a, Uint) or not isinstance(b, Bytes):
        raise TypeMismatch("prefix reference must be [index, tail bytes]")
    return b.data, a.value
