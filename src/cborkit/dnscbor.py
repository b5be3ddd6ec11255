"""Compact DNS messages as a single CBOR array.

The layout leans on element order instead of field keys:

    [flags?, question?, section, section, section]

* ``flags`` (unsigned) appears only when it differs from the role's
  default (0x0100 for queries, 0x8180 for responses).
* the question is elided from a response when the decoder already knows
  it from the matching request; queries always carry it.  Within the
  question, class is dropped when IN and type additionally when AAAA.
* trailing sections are dropped and the remaining count disambiguates
  which ones are present (authority before additional on the chopping
  block; answers in queries are dropped entirely unless
  ``allow_query_answers`` is set, where they get top elision priority).
* a record array is ``[name..., ttl, type, rdata..., class?]``; the
  name is omitted when it equals the question name (plain mode only).

``encode_message`` is the one encode entry point: it builds the item and
its bytes together.

Names are either one text string (presentation form, mode ``None``) or
spliced label components.  In component mode every emitted text string
gets a depth-first index and a ``dnswire.SuffixTable`` maps each name
suffix to the index of its first component, under the rule wire pointers
follow: later names replace their longest known suffix with a single
reference tag carrying that index, and the decoder rebuilds the name by
jumping to the indexed component and appending what follows.  One helper,
``_References``, keeps that rule for both the encoder and
``component_size``, which sizes a component mode from the plain encoding;
the two also share the layout rules (``_question_tail``, ``_elides_owner``,
``_rdata_fields`` and ``_SPLICED_TYPES``).

``item_to_message``, where ``decode_message`` ends, is the one place where
a wire-model error (a ``DnsWireError`` from a label, name, field or rdata
that does not fit, or a lone surrogate in a label) becomes ``TypeMismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cbor
from .cbor import Array, Bytes, CborItem, Tag, Text, Uint
from .dnswire import (
    CLASS_IN,
    DnsMessage,
    DnsWireError,
    Name,
    Question,
    RDATA_LAYOUTS,
    RdataFields,
    ResourceRecord,
    SuffixTable,
    TYPE_AAAA,
    pack_rdata,
)

ROLE_QUERY = "query"
ROLE_RESPONSE = "response"

DEFAULT_QUERY_FLAGS = 0x0100
DEFAULT_RESPONSE_FLAGS = 0x8180

# Fixed reference tag numbers, not IANA assignments.
REF_TAG_1PLUS0 = 7
REF_TAG_1PLUS1 = 140


class DnsCborError(Exception):
    pass


class MultiQuestion(DnsCborError):
    pass


class BadReference(DnsCborError):
    pass


class TypeMismatch(DnsCborError):
    pass


class MissingQuestionContext(DnsCborError):
    pass


@dataclass(frozen=True)
class ComponentRef:
    """Name compression via indexed components and a reference tag."""

    tag: int = REF_TAG_1PLUS0

    @classmethod
    def one_plus_zero(cls) -> "ComponentRef":
        """References in a 1-byte tag head."""
        return cls(REF_TAG_1PLUS0)

    @classmethod
    def one_plus_one(cls) -> "ComponentRef":
        """References in a 2-byte tag head."""
        return cls(REF_TAG_1PLUS1)


@dataclass
class CodecContext:
    role: str = ROLE_QUERY
    request_question: Question | None = None
    allow_query_answers: bool = False
    structured_rdata: bool = True
    mode: ComponentRef | None = None

    @property
    def default_flags(self) -> int:
        if self.role == ROLE_RESPONSE:
            return DEFAULT_RESPONSE_FLAGS
        return DEFAULT_QUERY_FLAGS


@dataclass
class EncodedMessage:
    """Encoder output plus what was lost or elided along the way."""

    data: bytes
    item: CborItem
    dropped_answers: int = 0
    question_elided: bool = False


class _References:
    """The component reference rule, for the encoder and ``component_size``
    alike: each component spelled out takes the next index, and each suffix
    it starts is recorded in a ``SuffixTable`` unless an earlier one holds it."""

    __slots__ = ("next_index", "suffixes")

    def __init__(self) -> None:
        self.next_index = 0
        self.suffixes = SuffixTable()

    def split(self, name: Name) -> tuple[tuple[str, ...], int | None]:
        """The components to spell out and the index the rest is referenced
        by (None: nothing left to reference)."""
        key = name.key()
        if not key:
            # One empty text string: it takes an index but records no
            # suffix, since a reference would never be shorter.
            self.next_index += 1
            return ("",), None
        suffixes = self.suffixes
        ref = suffixes.get(key)
        if ref is not None:
            # A repeated name or suffix: one reference.  Its labels were
            # found to be UTF-8 when it was recorded.
            return (), ref
        literal_count, ref = suffixes.longest(key)
        try:
            components = tuple([label.decode("utf-8") for label in name.labels[:literal_count]])
        except UnicodeDecodeError as exc:
            raise TypeMismatch("name label is not UTF-8 text: %s" % exc) from exc
        index = self.next_index
        for i in range(literal_count):
            suffixes.setdefault(key[i:], index + i)
        self.next_index = index + literal_count
        return components, ref


class _Encoder:
    def __init__(self, ctx: CodecContext):
        self.ctx = ctx
        self.refs = _References() if ctx.mode is not None else None
        self.elides_owner = True  # set from _elides_owner once the question is placed

    def name_items(self, name: Name) -> list[CborItem]:
        mode = self.ctx.mode
        if mode is None:
            return [Text(name.to_text())]
        literal, ref = self.refs.split(name)
        items: list[CborItem] = [Text(c) for c in literal]
        if ref is not None:
            items.append(Tag(mode.tag, Uint(ref)))
        return items

    def question_items(self, question: Question) -> Array:
        return Array(self.name_items(question.name) + _question_tail(question))

    def rr_items(self, record: ResourceRecord, question_name: Name) -> Array:
        items: list[CborItem] = []
        if not (self.elides_owner and record.name.equals(question_name)):
            items.extend(self.name_items(record.name))
        items.append(Uint(record.ttl))
        items.append(Uint(record.rtype))
        items.extend(self.rdata_items(record))
        if record.rclass != CLASS_IN:
            items.append(Uint(record.rclass))
        return Array(items)

    def rdata_items(self, record: ResourceRecord) -> list[CborItem]:
        fields = _rdata_fields(record, self.ctx)
        if fields is not None:
            if record.rtype in _SPLICED_TYPES:
                return self.name_items(fields.names[0])
            items: list[CborItem] = [Uint(v) for v in fields.prefix]
            items += [self.nested_name(n) for n in fields.names]
            items += [Uint(v) for v in fields.tail]
            return [Array(items)]
        return [Bytes(record.rdata)]

    def nested_name(self, name: Name) -> CborItem:
        if self.ctx.mode is None:
            return Text(name.to_text())
        return Array(self.name_items(name))


def _question_tail(question: Question) -> list[CborItem]:
    """The items after the question's name: its type unless AAAA, and its
    class too unless IN."""
    if question.rclass != CLASS_IN:
        return [Uint(question.rtype), Uint(question.rclass)]
    return [] if question.rtype == TYPE_AAAA else [Uint(question.rtype)]


def _elides_owner(component_mode: bool, question_emitted: bool) -> bool:
    """Whether an owner equal to the question name is elided: always in
    plain mode, and in component mode only when the question is elided.
    With the question present a reference to its components costs 1-2
    bytes; without it there is nothing to point at and elision stays
    cheaper than respelling."""
    return not component_mode or not question_emitted


def _rdata_fields(record: ResourceRecord, ctx: CodecContext) -> RdataFields | None:
    """The fields the rdata is encoded from; None for one byte string
    (unstructured rdata, a type without names, or malformed rdata)."""
    if ctx.structured_rdata and record.rtype in RDATA_LAYOUTS:
        return record.rdata_fields()
    return None


# Rdata that is a lone name (NS/CNAME/PTR) is spliced into the record;
# other rdata fields nest in an array.
_SPLICED_TYPES = frozenset(t for t, (head, _, tail) in RDATA_LAYOUTS.items() if head == tail == "")


def _plan_sections(
    msg: DnsMessage, ctx: CodecContext
) -> tuple[list[list[ResourceRecord]], int]:
    """Pick the emitted section lists; returns (sections, dropped answers)."""
    answers, authority, additional = msg.answers, msg.authority, msg.additional
    if ctx.role == ROLE_RESPONSE:
        if authority:
            return [answers, authority, additional], 0
        if additional:
            return [answers, additional], 0
        if answers:
            return [answers], 0
        return [], 0
    # queries: answers have the highest elision priority
    dropped = 0
    if answers and not ctx.allow_query_answers:
        dropped = len(answers)
        answers = []
    if answers:
        return [answers, authority, additional], dropped
    if authority:
        return [authority, additional], dropped
    if additional:
        return [additional], dropped
    return [], dropped


def encode_message(msg: DnsMessage, ctx: CodecContext) -> EncodedMessage:
    if len(msg.questions) != 1:
        raise MultiQuestion(
            "message carries %d questions; exactly one is required" % len(msg.questions)
        )
    question = msg.questions[0]
    encoder = _Encoder(ctx)
    outer: list[CborItem] = []
    if msg.flags != ctx.default_flags:
        outer.append(Uint(msg.flags))
    question_elided = (
        ctx.role == ROLE_RESPONSE
        and ctx.request_question is not None
        and ctx.request_question.matches(question)
    )
    sections, dropped = _plan_sections(msg, ctx)
    if question_elided and not outer and not sections:
        # Everything elidable at once would leave an undecodable empty
        # array; keep the question so the output stays self-describing.
        question_elided = False
    if not question_elided:
        outer.append(encoder.question_items(question))
    encoder.elides_owner = _elides_owner(ctx.mode is not None, not question_elided)
    for records in sections:
        outer.append(Array([encoder.rr_items(r, question.name) for r in records]))
    item = Array(outer)
    return EncodedMessage(cbor.encode(item), item, dropped, question_elided)


_TEXT_SIZES = tuple(cbor.head_size(n) + n for n in range(64))  # by label length


def component_size(msg: DnsMessage, ctx: CodecContext, plain: EncodedMessage) -> tuple[int, int]:
    """The size of ``msg`` encoded in the 1+0 component mode and its count
    of references, from ``plain``, its encoding in ``ctx`` with no mode.
    Visits the names in ``encode_message``'s order and raises
    ``TypeMismatch`` where the component encoder does."""
    split = _References().split
    head_size = cbor.head_size
    ref_head = head_size(REF_TAG_1PLUS0)
    size = len(plain.data)
    references = 0

    def swap(name: Name, has_text: bool = True) -> int:
        """Trade a name's plain text, if any, for its items; returns their count."""
        nonlocal size, references
        literal, ref = split(name)
        items = len(literal)
        if items:
            labels = name.labels  # the root is one empty text string
            size += sum([_TEXT_SIZES[len(label)] for label in labels[:items]]) if labels else 1
        if ref is not None:
            references += 1
            items += 1
            size += ref_head + (1 if ref < 24 else head_size(ref))
        if has_text:
            text = name.to_text()
            n = len(text) if text.isascii() else len(text.encode("utf-8"))
            size -= n + (1 if n < 24 else head_size(n))
        return items

    # Each array holding names has at most 5 items in plain mode, so its
    # head changes only when its components take it past 23.
    question = msg.questions[0]
    qname = question.name
    question_emitted = not plain.question_elided
    if question_emitted:
        items = swap(qname) + len(_question_tail(question))
        if items > 23:
            size += head_size(items) - 1
    # Plain mode elides every owner equal to the question name.
    spell_owner = not _elides_owner(True, question_emitted)
    for records in _plan_sections(msg, ctx)[0]:
        for record in records:
            items = 3 if record.rclass == CLASS_IN else 4  # ttl, type, rdata, class?
            owner = record.name
            if owner is not qname and not owner.equals(qname):
                items += swap(owner)
            elif spell_owner:
                items += swap(owner, False)
            fields = _rdata_fields(record, ctx)
            if fields is not None and record.rtype in _SPLICED_TYPES:
                items += swap(fields.names[0]) - 1
            elif fields is not None:
                for name in fields.names:  # each becomes an array
                    count = swap(name)
                    size += 1 if count < 24 else head_size(count)
            if items > 23:
                size += head_size(items) - 1
    return size, references


def _expect_uint(item: CborItem, bits: int, what: str) -> int:
    if not isinstance(item, Uint) or item.value >= 1 << bits:
        raise TypeMismatch("%s must be an unsigned %d-bit integer" % (what, bits))
    return item.value


def _fixed_fields(items: list[CborItem]) -> tuple[int, ...]:
    """Fixed rdata integers; ``pack_rdata`` holds each to its width."""
    if not all(isinstance(item, Uint) for item in items):
        raise TypeMismatch("rdata fields must be unsigned integers")
    return tuple([item.value for item in items])


class _Decoder:
    def __init__(self, ctx: CodecContext):
        self.ctx = ctx
        self.suffixes: list[tuple[str, ...]] = []

    def is_ref(self, item: CborItem) -> bool:
        mode = self.ctx.mode
        return mode is not None and isinstance(item, Tag) and item.number == mode.tag

    @staticmethod
    def name_from_text(element: CborItem) -> Name:
        """A plain-mode name: one text string in presentation form."""
        if not isinstance(element, Text):
            raise TypeMismatch("expected a name text string")
        return Name.from_text(element.data)

    def parse_name(self, elems: list[CborItem], i: int) -> tuple[Name, int]:
        if self.ctx.mode is None:
            if i >= len(elems):
                raise TypeMismatch("expected a name text string")
            return self.name_from_text(elems[i]), i + 1
        texts: list[str] = []
        tail: tuple[str, ...] | None = None
        while i < len(elems):
            element = elems[i]
            if isinstance(element, Text):
                texts.append(element.data)
                i += 1
                continue
            if self.is_ref(element):
                if not isinstance(element.content, Uint):
                    raise TypeMismatch("reference tag must carry an unsigned index")
                index = element.content.value
                if index >= len(self.suffixes):
                    raise BadReference(
                        "reference %d but only %d components seen"
                        % (index, len(self.suffixes))
                    )
                tail = self.suffixes[index]
                i += 1
            break
        if not texts and tail is None:
            raise TypeMismatch("expected name components")
        if texts == [""] and tail is None:
            self.suffixes.append(())
            return Name(()), i
        if any(not t for t in texts):
            raise TypeMismatch("empty name component")
        components = tuple(texts) + (tail or ())
        for j in range(len(texts)):
            self.suffixes.append(components[j:])
        return Name(tuple([c.encode("utf-8") for c in components])), i

    def parse_nested_name(self, element: CborItem) -> Name:
        if self.ctx.mode is None:
            return self.name_from_text(element)
        if not isinstance(element, Array):
            raise TypeMismatch("expected an array of name components")
        name, consumed = self.parse_name(element.items, 0)
        if consumed != len(element.items):
            raise TypeMismatch("stray elements after nested name")
        return name

    def parse_question(self, arr: Array) -> Question:
        name, i = self.parse_name(arr.items, 0)
        rest = arr.items[i:]
        if len(rest) > 2:
            raise TypeMismatch("question array has %d trailing items" % len(rest))
        rtype = _expect_uint(rest[0], 16, "question type") if rest else TYPE_AAAA
        rclass = _expect_uint(rest[1], 16, "question class") if len(rest) == 2 else CLASS_IN
        return Question(name, rtype, rclass)

    def parse_rr(self, arr: CborItem, question_name: Name) -> ResourceRecord:
        if not isinstance(arr, Array) or not arr.items:
            raise TypeMismatch("record must be a non-empty array")
        elems = arr.items
        if isinstance(elems[0], Uint):
            name = question_name
            i = 0
        else:
            name, i = self.parse_name(elems, 0)
        if i + 1 >= len(elems):
            raise TypeMismatch("record TTL or type missing")
        ttl = _expect_uint(elems[i], 32, "record TTL")
        rtype = _expect_uint(elems[i + 1], 16, "record type")
        i += 2
        rdata, i = self.parse_rdata(rtype, elems, i)
        rclass = CLASS_IN
        if i < len(elems):
            rclass = _expect_uint(elems[i], 16, "record class")
            i += 1
        if i != len(elems):
            raise TypeMismatch("stray elements after record class")
        return ResourceRecord(name, rtype, rclass, ttl, rdata)

    def parse_rdata(
        self, rtype: int, elems: list[CborItem], i: int
    ) -> tuple[bytes, int]:
        if i >= len(elems):
            raise TypeMismatch("record data missing")
        element = elems[i]
        layout = RDATA_LAYOUTS.get(rtype) if self.ctx.structured_rdata else None
        if layout is not None and not isinstance(element, Bytes):
            if rtype in _SPLICED_TYPES:
                name, i = self.parse_name(elems, i)
                return pack_rdata(rtype, RdataFields((), (name,), ())), i
            if isinstance(element, Array):
                head, count, tail = layout
                f = element.items
                if len(f) != len(head) + count + len(tail):
                    raise TypeMismatch(
                        "type %d data must be %d integers, %d names and %d integers"
                        % (rtype, len(head), count, len(tail))
                    )
                n = len(head)
                fields = RdataFields(
                    _fixed_fields(f[:n]),
                    tuple(self.parse_nested_name(x) for x in f[n : n + count]),
                    _fixed_fields(f[n + count :]),
                )
                return pack_rdata(rtype, fields), i + 1
        if not isinstance(element, Bytes):
            raise TypeMismatch(
                "record data for type %d must be a byte string" % rtype
            )
        return element.data, i + 1


def item_to_message(item: CborItem, ctx: CodecContext) -> DnsMessage:
    """The one place where a wire-model error becomes ``TypeMismatch``."""
    try:
        if not isinstance(item, Array):
            raise TypeMismatch("message must be a CBOR array")
        elems = item.items
        if not elems:
            raise TypeMismatch("empty message array")
        decoder = _Decoder(ctx)
        i = 0
        flags = ctx.default_flags
        if isinstance(elems[i], Uint):
            flags = _expect_uint(elems[i], 16, "flags")
            i += 1
        question: Question | None = None
        element = elems[i] if i < len(elems) else None
        if (
            isinstance(element, Array)
            and element.items
            and (isinstance(element.items[0], Text) or decoder.is_ref(element.items[0]))
        ):
            question = decoder.parse_question(element)
            i += 1
        if question is None:
            if ctx.role != ROLE_RESPONSE:
                raise TypeMismatch("query without a question section")
            if ctx.request_question is None:
                raise MissingQuestionContext(
                    "response elides the question and no request context was given"
                )
            q = ctx.request_question
            question = Question(q.name, q.rtype, q.rclass)
        section_items = elems[i:]
        count = len(section_items)
        answers: list[ResourceRecord] = []
        authority: list[ResourceRecord] = []
        additional: list[ResourceRecord] = []
        if ctx.role == ROLE_RESPONSE:
            order = {1: ("an",), 2: ("an", "ar"), 3: ("an", "ns", "ar")}.get(count)
        elif count == 3 and ctx.allow_query_answers:
            order = ("an", "ns", "ar")
        else:
            order = {0: (), 1: ("ar",), 2: ("ns", "ar")}.get(count)
        if count and order is None:
            raise TypeMismatch("%d section arrays do not fit role %s" % (count, ctx.role))
        targets = {"an": answers, "ns": authority, "ar": additional}
        for slot, section in zip(order or (), section_items):
            if not isinstance(section, Array):
                raise TypeMismatch("section must be an array of records")
            targets[slot].extend(
                decoder.parse_rr(rr, question.name) for rr in section.items
            )
        return DnsMessage(
            id=0,
            flags=flags,
            questions=[question],
            answers=answers,
            authority=authority,
            additional=additional,
        )
    except (DnsWireError, UnicodeEncodeError) as exc:
        raise TypeMismatch("%s: %s" % (type(exc).__name__, exc)) from exc


def decode_message(data: bytes, ctx: CodecContext) -> DnsMessage:
    item, consumed = cbor.decode(data)
    if consumed != len(data):
        raise TypeMismatch("trailing bytes after message item")
    return item_to_message(item, ctx)
