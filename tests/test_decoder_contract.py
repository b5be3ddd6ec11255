"""The decoder contract: whatever bytes a decoder is given, it returns a
value or raises its module's declared error family.

Inputs are seed encodings with a few bytes overwritten, inserted or
removed, or cut short.  Mutated wire messages that still decode are also
compared and round-tripped through every DNS mode.  The seeds come from a
fixed random source, and hypothesis runs derandomized, so every run checks
the same cases.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_pcap, build_udp_frame, random_message
from cborkit.analysis import (
    MODES,
    AnalysisError,
    compare_modes,
    decode_in_mode,
    encode_in_mode,
    ingest_pcap,
)
from cborkit.cbor import CborError
from cborkit.dnscbor import CodecContext, DnsCborError, ROLE_QUERY, ROLE_RESPONSE
from cborkit.dnspacked import DnsPackedError
from cborkit.dnswire import DnsMessage, DnsWireError, decode_wire, encode_wire
from cborkit.jsonbridge import JsonBridgeError, parse_json

# The declared families of the modules an encoding runs through.
_DNS_ERRORS = (CborError, DnsCborError, DnsPackedError, DnsWireError)


def _contexts():
    """Seed messages with the context each one encodes under; a response
    elides the question its request asked."""
    rng = random.Random(7)
    out = []
    for _ in range(12):
        msg = random_message(rng)
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        request = msg.questions[0] if msg.is_response else None
        out.append((msg, role, request))
    return out


_SEEDS = _contexts()
_WIRES = [encode_wire(msg) for msg, _, _ in _SEEDS]


def _context(seed: int) -> CodecContext:
    _, role, request = _SEEDS[seed]
    return CodecContext(role=role, request_question=request)


_ENCODED = {
    mode: [encode_in_mode(msg, _context(i), mode).data for i, (msg, _, _) in enumerate(_SEEDS)]
    for mode in MODES
}
_JSON = [
    b'{"id": 12, "name": "caf\\u00e9", "tags": ["a", "b"], "ok": true, "n": null}',
    b'[1.5e3, -0, 18446744073709551616, "\\ud83d\\ude00", {"": [[]]}]',
    '{"blob": {"type": "file", "encoding": "base64", "content": "aGk=", "size": 2}}'.encode(),
    '"naïve ☃"'.encode(),
]
_PCAPS = [
    build_pcap([build_udp_frame(wire) for wire in _WIRES[:4]]),
    build_pcap([build_udp_frame(wire, ipv6=True, v6_ext=True) for wire in _WIRES[4:6]], swapped=True),
]


@st.composite
def _mutated(draw, seeds: list[bytes]) -> bytes:
    index = draw(st.integers(0, len(seeds) - 1))
    data = bytearray(seeds[index])
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if op == "cut":
            del data[pos:]
        elif op == "insert":
            data.insert(pos, draw(st.integers(0, 255)))
        elif pos < len(data):
            if op == "set":
                data[pos] = draw(st.integers(0, 255))
            else:
                del data[pos]
    return bytes(data)


_FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


@_FUZZ
@given(_mutated(_WIRES))
def test_decode_wire_contract(data):
    try:
        decode_wire(data)
    except DnsWireError:
        pass


@_FUZZ
@given(st.sampled_from([mode for mode, (_, pack) in MODES.items() if pack is None]), st.data())
def test_decode_message_contract(mode, data):
    blob = data.draw(_mutated(_ENCODED[mode]))
    seed = data.draw(st.integers(0, len(_SEEDS) - 1))
    try:
        decode_in_mode(blob, _context(seed), mode)
    except (CborError, DnsCborError):
        pass


@_FUZZ
@given(st.sampled_from([mode for mode, (_, pack) in MODES.items() if pack]), st.data())
def test_packed_decode_contract(mode, data):
    blob = data.draw(_mutated(_ENCODED[mode]))
    seed = data.draw(st.integers(0, len(_SEEDS) - 1))
    try:
        decode_in_mode(blob, _context(seed), mode)
    except (CborError, DnsPackedError, DnsCborError):
        pass


# About one mutated wire message in seven still decodes; 1,500 cases give
# about 200 messages to compare and round-trip.
@settings(max_examples=1500, deadline=None, derandomize=True)
@given(_mutated(_WIRES), st.booleans())
def test_mutated_wire_messages_in_every_mode(data, paired):
    try:
        msg = decode_wire(data)
    except DnsWireError:
        return
    request = DnsMessage(0, 0x0100, msg.questions[:1]) if paired else None
    try:
        compare_modes(msg, request)
    except (AnalysisError, *_DNS_ERRORS):
        pass
    role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
    question = msg.questions[0] if paired and msg.is_response and msg.questions else None
    for mode in MODES:
        ctx = CodecContext(role=role, request_question=question)
        try:
            encoded = encode_in_mode(msg, ctx, mode)
        except _DNS_ERRORS:
            continue
        decode_in_mode(encoded.data, ctx, mode)  # every encoding decodes


@_FUZZ
@given(_mutated(_JSON))
def test_parse_json_contract(data):
    try:
        parse_json(data)
    except JsonBridgeError:
        pass


@_FUZZ
@given(_mutated(_PCAPS))
def test_ingest_pcap_contract(data):
    try:
        ingest_pcap(data)
    except AnalysisError:
        pass
