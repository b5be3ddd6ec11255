"""Per-message size comparison, pairwise suffix/prefix statistics, and
corpus ingestion from hex dumps or legacy pcap captures.

The suffix statistics are streamed: ``write_suffix_csv`` writes each pair's
row as it is made, so memory grows with the messages' names and addresses
(``message_names``, ``message_addresses``), never with their pairs.

The readers return each input they drop as a skip, ``(label, error)``:
``line N`` for a hex line (a ValueError, else the DnsWireError) and
``packet N``, counted from 1, for a UDP DNS payload that does not decode.
"""

from __future__ import annotations

import csv
import struct
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, NamedTuple, TextIO

from . import cbor, dnscbor, dnspacked
from .taxonomy import SavingsReport, compute_savings
from .dnscbor import CodecContext, ComponentRef, ROLE_QUERY, ROLE_RESPONSE
from .dnswire import (
    DnsMessage,
    DnsWireError,
    Name,
    TYPE_A,
    TYPE_AAAA,
    decode_wire,
    encode_wire,  # unused here; the benchmark's traced run wraps it by this name
    wire_size,
)


class AnalysisError(Exception):
    pass


class FamilyMismatch(AnalysisError):
    pass


class BadMagic(AnalysisError):
    pass


class UnsupportedLinkType(AnalysisError):
    pass


# The five DNS encodings, in CSV column order: mode name -> (component
# references or None, pack mode or None).  Plain CBOR and the 1+0 and 1+1
# reference tags follow draft-lenders-dns-cbor; the packed modes pack the
# plain item (draft-ietf-cbor-packed).
MODES = {
    "unpacked": (None, None),
    "compref10": (ComponentRef.one_plus_zero(), None),
    "compref11": (ComponentRef.one_plus_one(), None),
    "packedlite": (None, dnspacked.PACKED_LITE),
    "packedfull": (None, dnspacked.PACKED_FULL),
}

CSV_COLUMNS = ["role", "question_elided", "classic_size"] + [
    "%s_%s" % (mode, col) for mode in MODES for col in ("size", "b", "g")
]


def common_suffix_bytes(a: Name, b: Name) -> int:
    """Matching trailing bytes of the presentation forms in UTF-8, ASCII
    letters folded."""
    ta = a.to_text().encode("utf-8").lower()
    tb = b.to_text().encode("utf-8").lower()
    n = 0
    while n < len(ta) and n < len(tb) and ta[-1 - n] == tb[-1 - n]:
        n += 1
    return n


def common_suffix_components(a: Name, b: Name) -> tuple[int, int]:
    """Longest shared label suffix -> (label count, joined byte length)."""
    ka, kb = a.key(), b.key()
    count = 0
    while count < len(ka) and count < len(kb) and ka[-1 - count] == kb[-1 - count]:
        count += 1
    if count == 0:
        return 0, 0
    joined = sum(len(label) for label in ka[-count:]) + count - 1
    return count, joined


def common_prefix_bytes(a: bytes, b: bytes) -> int:
    if len(a) != len(b) or len(a) not in (4, 16):
        raise FamilyMismatch("addresses must both be 4 or 16 bytes")
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def message_names(msg: DnsMessage) -> list[Name]:
    """Question, owner, and structured-rdata names, in message order."""
    names = [q.name for q in msg.questions]
    for record in (*msg.answers, *msg.authority, *msg.additional):
        names.append(record.name)
        fields = record.rdata_fields()  # None also for malformed rdata
        if fields is not None:
            names.extend(fields.names)
    return names


def message_addresses(msg: DnsMessage) -> list[bytes]:
    out = []
    for record in (*msg.answers, *msg.authority, *msg.additional):
        if record.rtype == TYPE_A and len(record.rdata) == 4:
            out.append(record.rdata)
        elif record.rtype == TYPE_AAAA and len(record.rdata) == 16:
            out.append(record.rdata)
    return out


@dataclass
class ModeComparison:
    role: str
    question_elided: bool
    classic_size: int
    sizes: dict[str, int]  # a skipped mode has no entry
    skipped: Exception | None = None  # why modes are missing from ``sizes``

    def savings(self, mode: str) -> SavingsReport:
        return compute_savings(self.classic_size, self.sizes[mode])


def encode_in_mode(msg: DnsMessage, ctx: CodecContext, mode: str) -> dnscbor.EncodedMessage:
    """Encode ``msg`` in one of ``MODES``; ``data`` holds the mode's bytes
    and ``item`` the unpacked item."""
    ref, pack_mode = MODES[mode]
    encoded = dnscbor.encode_message(msg, replace(ctx, mode=ref))
    if pack_mode is not None:
        encoded.data = dnspacked.pack(encoded.item, pack_mode).encode()
    return encoded


def decode_in_mode(data: bytes, ctx: CodecContext, mode: str) -> DnsMessage:
    ref, pack_mode = MODES[mode]
    ctx = replace(ctx, mode=ref)
    if pack_mode is None:
        return dnscbor.decode_message(data, ctx)
    item = dnspacked.unpack(dnspacked.PackedEnvelope.from_bytes(data))
    return dnscbor.item_to_message(item, ctx)


def compare_modes(
    msg: DnsMessage,
    request: DnsMessage | None = None,
    allow_query_answers: bool = False,
) -> ModeComparison:
    role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
    request_question = None
    if role == ROLE_RESPONSE and request is not None and request.questions:
        request_question = request.questions[0]
    classic_size = wire_size(msg)
    ctx = CodecContext(role, request_question, allow_query_answers)
    plain = dnscbor.encode_message(msg, ctx)
    skipped = None
    try:
        base_size, references = dnscbor.component_size(msg, ctx, plain)  # in 1+0 mode
    except dnscbor.TypeMismatch as exc:  # a label that is not UTF-8 has no text component
        skipped = exc
    packed = dnspacked.packed_sizes(plain.item, len(plain.data))
    sizes = {}
    for mode, (ref, pack_mode) in MODES.items():
        if pack_mode is not None:
            sizes[mode] = packed[pack_mode]
        elif ref is None:
            sizes[mode] = len(plain.data)
        elif skipped is None:
            # Component modes differ only in the width of each reference tag's head.
            extra = cbor.head_size(ref.tag) - cbor.head_size(dnscbor.REF_TAG_1PLUS0)
            sizes[mode] = base_size + references * extra
    return ModeComparison(role, plain.question_elided, classic_size, sizes, skipped)


class Record(NamedTuple):
    """One ingested message; a pcap also gives its UDP flow."""

    message: DnsMessage
    flow: frozenset | None = None  # {(ip bytes, port), (ip bytes, port)}


def ingest_hex(lines: Iterable[str]) -> tuple[list[Record], list[tuple[str, Exception]]]:
    """One lowercase hex message per line; '#' comments and blanks skipped."""
    records: list[Record] = []
    skips: list[tuple[str, Exception]] = []
    for line_no, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            records.append(Record(decode_wire(bytes.fromhex(text))))
        except (ValueError, DnsWireError) as exc:
            skips.append(("line %d" % line_no, exc))
    return records, skips


@dataclass
class PcapStats:
    packets: int = 0
    skipped_non_dns: int = 0
    ipv6_extension_headers: int = 0


PCAP_MAGICS = {b"\xa1\xb2\xc3\xd4": ">", b"\xd4\xc3\xb2\xa1": "<"}  # byte order by magic
_LINKTYPE_ETHERNET = 1
_DNS_PORTS = (53, 5353)

# IPv6 extension headers with the generic (next, len/8 - 1) layout.
_V6_EXTENSIONS = {0, 43, 60}
_V6_FRAGMENT = 44


def ingest_pcap(data: bytes) -> tuple[list[Record], list[tuple[str, Exception]], PcapStats]:
    if len(data) < 24:
        raise BadMagic("file shorter than a pcap global header")
    endian = PCAP_MAGICS.get(data[:4])
    if endian is None:
        raise BadMagic("magic %#x is not a legacy pcap" % int.from_bytes(data[:4], "big"))
    linktype = struct.unpack(endian + "I", data[20:24])[0]
    if linktype != _LINKTYPE_ETHERNET:
        raise UnsupportedLinkType("linktype %d (only Ethernet supported)" % linktype)
    records: list[Record] = []
    skips: list[tuple[str, Exception]] = []
    stats = PcapStats()
    pos = 24
    while pos + 16 <= len(data):
        incl_len = struct.unpack_from(endian + "I", data, pos + 8)[0]
        pos += 16
        if pos + incl_len > len(data):
            break
        frame = data[pos : pos + incl_len]
        pos += incl_len
        stats.packets += 1
        parsed = _parse_frame(frame, stats)
        if parsed is None:
            stats.skipped_non_dns += 1
            continue
        payload, flow = parsed
        try:
            records.append(Record(decode_wire(payload), flow))
        except DnsWireError as exc:
            skips.append(("packet %d" % stats.packets, exc))
    return records, skips, stats


def _parse_frame(frame: bytes, stats: PcapStats):
    """The UDP DNS payload and flow of an Ethernet frame; None if not DNS."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack(">H", frame[12:14])[0]
    payload = frame[14:]
    if ethertype == 0x0800:
        parsed = _parse_ipv4(payload)
    elif ethertype == 0x86DD:
        parsed = _parse_ipv6(payload, stats)
    else:
        return None
    if parsed is None:
        return None
    src, dst, udp = parsed
    if len(udp) < 8:
        return None
    sport, dport, length = struct.unpack(">HHH", udp[:6])
    if sport not in _DNS_PORTS and dport not in _DNS_PORTS:
        return None
    payload = udp[8 : max(8, min(length, len(udp)))]
    flow = frozenset(((src, sport), (dst, dport)))
    return payload, flow


def _parse_ipv4(packet: bytes):
    if len(packet) < 20 or packet[0] >> 4 != 4:
        return None
    ihl = (packet[0] & 0x0F) * 4
    if ihl < 20 or len(packet) < ihl:
        return None
    if packet[9] != 17:  # UDP only; TCP DNS is out of scope
        return None
    frag = struct.unpack(">H", packet[6:8])[0]
    if frag & 0x1FFF:  # non-first fragment carries no UDP header
        return None
    return packet[12:16], packet[16:20], packet[ihl:]


def _parse_ipv6(packet: bytes, stats: PcapStats):
    if len(packet) < 40 or packet[0] >> 4 != 6:
        return None
    src, dst = packet[8:24], packet[24:40]
    next_header = packet[6]
    pos = 40
    while True:
        if next_header == 17:
            return src, dst, packet[pos:]
        if next_header in _V6_EXTENSIONS:
            if pos + 2 > len(packet):
                return None
            stats.ipv6_extension_headers += 1
            upcoming = packet[pos]
            pos += (packet[pos + 1] + 1) * 8
            next_header = upcoming
        elif next_header == _V6_FRAGMENT:
            if pos + 8 > len(packet):
                return None
            stats.ipv6_extension_headers += 1
            if struct.unpack(">H", packet[pos + 2 : pos + 4])[0] & 0xFFF8:
                return None  # non-first fragment
            next_header = packet[pos]
            pos += 8
        else:
            return None
        if pos > len(packet):
            return None


def _pair_key(record: Record) -> tuple:
    msg = record.message
    question = None
    if msg.questions:
        q = msg.questions[0]
        question = (q.name.key(), q.rtype, q.rclass)
    return (msg.id, question, record.flow)


def pair_queries_responses(records: Iterable) -> list[tuple]:
    """Match each response to the earliest unconsumed earlier query with
    the same id and question (and flow, when the records carry one);
    unmatched responses pair with ``None``."""
    pending: dict[tuple, deque] = {}
    pairs = []
    for record in records:
        if record.message.is_response:
            queue = pending.get(_pair_key(record))
            pairs.append((queue.popleft() if queue else None, record))
        else:
            pending.setdefault(_pair_key(record), deque()).append(record)
    return pairs


def write_csv(rows: Iterable[ModeComparison]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        fields = [row.role, "1" if row.question_elided else "0", str(row.classic_size)]
        for mode in MODES:
            if mode in row.sizes:
                report = row.savings(mode)
                fields.extend((str(row.sizes[mode]), str(report.savings_b), "%.6f" % report.gain_g))
            else:
                fields.extend(("", "", ""))  # a skipped mode
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


SUFFIX_CSV_COLUMNS = (
    "message,kind,a,b,bytewise_suffix,component_labels,component_bytes,prefix_bytes,equal"
)


def write_suffix_csv(
    out: TextIO, messages: Iterable[tuple[int, tuple[list[Name], list[bytes]]]]
) -> None:
    """Write one row per pair to ``out`` as it is made, from (message index,
    (names, addresses)) pairs; addresses pair within one family only."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SUFFIX_CSV_COLUMNS.split(","))
    for index, (names, addresses) in messages:
        for a, b in combinations(names, 2):
            labels, joined = common_suffix_components(a, b)
            writer.writerow([index, "name", a.to_text(), b.to_text(), common_suffix_bytes(a, b),
                             labels, joined, "", 1 if a.equals(b) else 0])
        for a, b in combinations(addresses, 2):
            if len(a) == len(b):
                prefix = common_prefix_bytes(a, b)
                writer.writerow([index, "address", a.hex(), b.hex(), "", "", "", prefix, ""])
