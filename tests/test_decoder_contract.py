"""The decoder contract: whatever bytes a decoder is given, it returns a
value or raises its module's declared error family.  And the CLI's: whatever
input file and ``--out`` a command is given, ``cli.run`` returns 0, 1 or 2;
on 1 its last stderr line is the ``error:`` line, and on 0 every count of
skipped inputs agrees with the skips its stderr names.

Inputs are seed encodings with a few bytes overwritten, inserted or
removed, or cut short.  Mutated wire messages that still decode are also
compared and round-tripped through every DNS mode.  The seeds come from a
fixed random source, and hypothesis runs derandomized, so every run checks
the same cases.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_pcap, build_udp_frame, random_message, reconcile_stderr
from cborkit import cbor, dnspacked
from cborkit.cbor import Array, Bytes, CborError, CborItem, Text, Uint
from cborkit.cli import run
from cborkit.analysis import (
    MODES,
    AnalysisError,
    compare_modes,
    decode_in_mode,
    encode_in_mode,
    ingest_pcap,
)
from cborkit.dnscbor import (
    CodecContext,
    ComponentRef,
    DnsCborError,
    ROLE_QUERY,
    ROLE_RESPONSE,
    TypeMismatch,
    item_to_message,
)
from cborkit.dnspacked import DnsPackedError
from cborkit.dnswire import DnsMessage, DnsWireError, TYPE_A, TYPE_TXT, decode_wire, encode_wire
from cborkit.jsonbridge import JsonBridgeError, blob_tag_base64, json_to_cbor, parse_json

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


# Fixed cases: an rdata or a label that the CBOR item holds but the wire
# model cannot, in each decode mode.


def _response_item(name: CborItem, rdata_length: int = 0) -> Array:
    """A response whose question is ``name`` and whose one answer is a TXT
    record with ``rdata_length`` bytes of rdata; it decodes the same in
    plain and component mode."""
    answer = Array([Uint(60), Uint(TYPE_TXT), Bytes(b"x" * rdata_length)])
    return Array([Array([name, Uint(TYPE_A)]), Array([answer])])


def _in_mode(item: Array, mode: str) -> bytes:
    if mode == "packedfull":
        return dnspacked.pack(item, dnspacked.PACKED_FULL).encode()
    return cbor.encode(item)


@pytest.mark.parametrize("mode", ["unpacked", "compref10", "packedfull"])
def test_rdata_longer_than_the_wire_allows_is_type_mismatch(mode):
    ctx = CodecContext(role=ROLE_RESPONSE)
    msg = decode_in_mode(_in_mode(_response_item(Text("example"), 0xFFFF), mode), ctx, mode)
    assert len(msg.answers[0].rdata) == 0xFFFF
    with pytest.raises(TypeMismatch, match="SectionOverflow"):
        decode_in_mode(_in_mode(_response_item(Text("example"), 0x10000), mode), ctx, mode)


@pytest.mark.parametrize("mode", ["unpacked", "compref10"])
def test_labels_the_wire_model_rejects_are_type_mismatch(mode):
    ctx = CodecContext(role=ROLE_RESPONSE)
    with pytest.raises(TypeMismatch, match="LabelOverflow"):
        decode_in_mode(cbor.encode(_response_item(Text("a" * 64))), ctx, mode)
    ctx = CodecContext(role=ROLE_RESPONSE, mode=MODES[mode][0])
    with pytest.raises(TypeMismatch, match="UnicodeEncodeError"):
        item_to_message(_response_item(Text("\ud800")), ctx)


# The CLI contract.  Each form is the command's arguments and the seeds its
# input file is mutated from; ``json analyze`` reads a directory holding it.
_RESPONSES = [msg for msg, role, _ in _SEEDS if role == ROLE_RESPONSE]
_CBOR = [cbor.encode(json_to_cbor(parse_json(text))) for text in _JSON]
_BLOB = b'{"type": "file", "encoding": "base64", "content": "aGk=", "size": 2}'
_HEX_CORPUS = ["".join(wire.hex() + "\n" for wire in _WIRES).encode()]
_CLI_FORMS = [
    (["cbor", "encode"], [data.hex().encode() for data in _CBOR]),
    (["cbor", "decode"], _CBOR),
    (["cbor", "diag", "--hex"], [data.hex().encode() for data in _CBOR]),
    (["json", "to-cbor"], _JSON),
    (["json", "from-cbor"], _CBOR),
    (["json", "minify"], _JSON),
    (["json", "blob-transform", "--step", "tag34"], [_BLOB]),
    (["json", "blob-transform", "--step", "bstr", "--input-format", "cbor"],
     [cbor.encode(blob_tag_base64(json_to_cbor(parse_json(_BLOB))))]),
    (["json", "analyze"], _JSON),
    (["dns", "to-cbor", "--role", "r", "--mode", "packedfull"], [encode_wire(m) for m in _RESPONSES]),
    (["dns", "to-cbor", "--role", "r", "--mode", "compref10"], [encode_wire(m) for m in _RESPONSES]),
] + [
    (["dns", "from-cbor", "--role", "r", "--mode", mode],
     [encode_in_mode(m, CodecContext(role=ROLE_RESPONSE), mode).data for m in _RESPONSES])
    for mode in ("packedfull", "compref10")
] + [
    (["dns", "compare"], _HEX_CORPUS),
    (["dns", "compare"], _PCAPS),
    (["dns", "suffix-stats"], _HEX_CORPUS),
    (["pcap", "extract"], _PCAPS),
]
_BENCH_SEEDS = {"json": _JSON, "cbor": _JSON, "dnswire": _WIRES, "dnscbor": _WIRES}


def _cli_input(tmp_path, args: list[str], data: bytes) -> str:
    infile = tmp_path / "in" / "doc.json"
    infile.parent.mkdir(exist_ok=True)
    infile.write_bytes(data)
    return str(infile.parent if args == ["json", "analyze"] else infile)


def _run_cli(capsys, argv: list[str]) -> int:
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2)
    if code == 1:
        assert err and err[-1].startswith("error: ")
    if code == 0:
        reconcile_stderr(err)
    return code


@pytest.mark.parametrize("args, seeds", _CLI_FORMS,
                         ids=[" ".join(a) + (" pcap" if s is _PCAPS else "") for a, s in _CLI_FORMS])
def test_an_unwritable_out_is_an_input_error(tmp_path, capsys, args, seeds):
    argv = args + ["--in", _cli_input(tmp_path, args, seeds[0])]
    assert _run_cli(capsys, argv + ["--out", str(tmp_path / "out")]) == 0
    for out in (tmp_path / "missing" / "out", tmp_path):
        assert _run_cli(capsys, argv + ["--out", str(out)]) == 1


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_contract(tmp_path, capsys, data):
    args, seeds = data.draw(st.sampled_from(_CLI_FORMS + [(["bench"], None)]))
    if seeds is None:
        target = data.draw(st.sampled_from(sorted(_BENCH_SEEDS)))
        argv = ["bench", "--target", target, "--iterations", str(data.draw(st.integers(-1, 2)))]
        if data.draw(st.booleans()):
            argv += ["--in", _cli_input(tmp_path, argv, data.draw(_mutated(_BENCH_SEEDS[target])))]
    else:
        out = data.draw(st.sampled_from([tmp_path / "out", tmp_path / "missing" / "out", tmp_path]))
        argv = args + ["--in", _cli_input(tmp_path, args, data.draw(_mutated(seeds))), "--out", str(out)]
    _run_cli(capsys, argv)
