"""The decoder contract: whatever bytes a decoder is given, it returns a
value or raises its module's declared error family.

Inputs are seed encodings with a few bytes overwritten, inserted or
removed, or cut short.  The seeds come from a fixed random source, and
hypothesis runs derandomized, so every run checks the same cases.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_pcap, build_udp_frame, random_message
from cborkit import dnspacked
from cborkit.analysis import AnalysisError, ingest_pcap
from cborkit.cbor import CborError
from cborkit.dnscbor import (
    CodecContext,
    ComponentRef,
    DnsCborError,
    ROLE_QUERY,
    ROLE_RESPONSE,
    decode_message,
    encode_message,
    item_to_message,
)
from cborkit.dnspacked import DnsPackedError, PackedEnvelope
from cborkit.dnswire import DnsWireError, decode_wire, encode_wire
from cborkit.jsonbridge import JsonBridgeError, parse_json

_MODES = {
    "unpacked": None,
    "compref10": ComponentRef.one_plus_zero(),
    "compref11": ComponentRef.one_plus_one(),
}


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


def _context(seed: int, mode: str) -> CodecContext:
    _, role, request = _SEEDS[seed]
    return CodecContext(role=role, request_question=request, mode=_MODES[mode])


_ENCODED = {
    mode: [encode_message(msg, _context(i, mode)).data for i, (msg, _, _) in enumerate(_SEEDS)]
    for mode in _MODES
}
_PACKED = [
    dnspacked.pack(encode_message(msg, _context(i, "unpacked")).item, pack_mode).encode()
    for i, (msg, _, _) in enumerate(_SEEDS)
    for pack_mode in (dnspacked.PACKED_LITE, dnspacked.PACKED_FULL)
]
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
@given(st.sampled_from(sorted(_MODES)), st.data())
def test_decode_message_contract(mode, data):
    blob = data.draw(_mutated(_ENCODED[mode]))
    seed = data.draw(st.integers(0, len(_SEEDS) - 1))
    try:
        decode_message(blob, _context(seed, mode))
    except (CborError, DnsCborError):
        pass


@_FUZZ
@given(_mutated(_PACKED), st.integers(0, len(_SEEDS) - 1))
def test_packed_decode_contract(data, seed):
    try:
        item = dnspacked.unpack(PackedEnvelope.from_bytes(data))
        item_to_message(item, _context(seed, "unpacked"))
    except (CborError, DnsPackedError, DnsCborError):
        pass


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
