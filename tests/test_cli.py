import contextlib
import io
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_pcap, build_udp_frame, random_message, reconcile_stderr
import cborkit
from cborkit import analysis, cbor
from cborkit.cli import FLOAT_MODES, run
from cborkit.dnscbor import CodecContext, ROLE_QUERY
from cborkit.jsonbridge import JsonNumber, JsonObject, json_to_cbor, minify, parse_json
from cborkit.dnswire import (
    CLASS_IN,
    DnsMessage,
    Name,
    Question,
    ResourceRecord,
    TYPE_A,
    TYPE_CNAME,
    decode_wire,
    encode_wire,
    name_rdata,
)


def cname_referral_response():
    return DnsMessage(
        0, 0x8180,
        [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)],
        answers=[ResourceRecord(Name.from_text("www.example.org"), TYPE_CNAME,
                                CLASS_IN, 3218, name_rdata("example.org"))],
        additional=[ResourceRecord(Name.from_text("example.org"), TYPE_A, CLASS_IN,
                                   3218, bytes([198, 51, 100, 35]))],
    )


def test_cbor_diag(tmp_path, capsys):
    item = tmp_path / "item.bin"
    item.write_bytes(b"\x0c")
    assert run(["cbor", "diag", "--in", str(item)]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_cbor_encode_canonicalizes(tmp_path, capsys):
    source = tmp_path / "item.hex"
    source.write_text("fb4016000000000000")
    assert run(["cbor", "encode", "--in", str(source), "--float-mode", "smallest"]) == 0
    assert capsys.readouterr().out.strip() == "f94580"


def test_cbor_decode_sequence(tmp_path, capsys):
    blob = tmp_path / "seq.bin"
    blob.write_bytes(b"\x0c" + bytes.fromhex("6648656c6c6f21"))
    assert run(["cbor", "decode", "--in", str(blob)]) == 0
    assert capsys.readouterr().out.splitlines() == ["12", '"Hello!"']


@pytest.mark.parametrize(
    "data,code,out,err",
    [
        ("", 0, "\n", ""),
        ("0c6648656c6c6f2182f6f5a1613820f97e00", 0,
         '12\n"Hello!"\n[null, true]\n{"8": -1}\nNaN\n', ""),
        ("0c6648656c6c6f2182f6", 1, "", "error: need 1 bytes at offset 10, have 0\n"),
        ("0c6648656cff", 1, "", "error: need 6 bytes at offset 2, have 4\n"),
    ],
    ids=["empty", "five-items", "truncated-third-item", "truncated-second-item"],
)
def test_cbor_decode_prints_every_item_or_nothing(tmp_path, capsys, data, code, out, err):
    blob = tmp_path / "seq.bin"
    blob.write_bytes(bytes.fromhex(data))
    assert run(["cbor", "decode", "--in", str(blob)]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "action,data,shown",
    [
        ("decode", "0ca2616101616282f93e00f6", '12\n{"a": 1, "b": [1.5, null]}\n'),
        ("diag", "a2616101616282f93e00f6", '{"a": 1, "b": [1.5, null]}\n'),
    ],
    ids=["decode", "diag"],
)
def test_cbor_out_holds_what_stdout_shows(tmp_path, capsys, action, data, shown):
    blob = tmp_path / "item.bin"
    blob.write_bytes(bytes.fromhex(data))
    assert run(["cbor", action, "--in", str(blob)]) == 0
    assert capsys.readouterr().out == shown
    out = tmp_path / "item.txt"
    assert run(["cbor", action, "--in", str(blob), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == shown


_BINARY_IO = [["cbor", "encode"], ["cbor", "decode"], ["cbor", "diag"], ["json", "to-cbor"],
              ["json", "from-cbor"], ["json", "blob-transform", "--step", "bstr"],
              ["dns", "to-cbor", "--role", "r"], ["dns", "from-cbor", "--role", "r"]]
_TEXT_IO = [["json", "minify"], ["json", "analyze"], ["dns", "compare"], ["dns", "suffix-stats"],
            ["pcap", "extract"]]


def test_hex_only_where_binary_io_is_read(tmp_path, capsys):
    absent = str(tmp_path / "absent")
    for command in _BINARY_IO:
        assert run(command + ["--in", absent, "--hex"]) == 1, command  # parsed, then no file
    capsys.readouterr()
    for command in _TEXT_IO:
        assert run(command + ["--in", absent, "--hex"]) == 2, command
        assert "unrecognized arguments: --hex" in capsys.readouterr().err


def test_cbor_malformed_input_is_exit_1(tmp_path):
    blob = tmp_path / "bad.bin"
    blob.write_bytes(b"\x1c")
    assert run(["cbor", "diag", "--in", str(blob)]) == 1


def test_json_pipeline(tmp_path, capsys):
    source = tmp_path / "x.json"
    source.write_text('{ "a" : 1 , "f" : 5.5 }')
    out = tmp_path / "x.cbor"
    assert run(["json", "to-cbor", "--in", str(source), "--out", str(out)]) == 0
    item, _ = cbor.decode(out.read_bytes())
    assert cbor.to_diagnostic(item) == '{"a": 1, "f": 5.5}'
    back = tmp_path / "x.min.json"
    assert run(["json", "from-cbor", "--in", str(out), "--out", str(back)]) == 0
    assert back.read_text() == '{"a":1,"f":5.5}'
    assert run(["json", "minify", "--in", str(source)]) == 0
    assert capsys.readouterr().out.strip() == '{"a":1,"f":5.5}'


def test_blob_transform_steps(tmp_path):
    blob = tmp_path / "blob.json"
    blob.write_text('{"content":"aGk=","encoding":"base64","size":2}')
    t1 = tmp_path / "t1.cbor"
    t2 = tmp_path / "t2.cbor"
    t3 = tmp_path / "t3.cbor"
    assert run(["json", "blob-transform", "--step", "tag34", "--in", str(blob), "--out", str(t1)]) == 0
    assert run(["json", "blob-transform", "--step", "bstr", "--input-format", "cbor",
                "--in", str(t1), "--out", str(t2)]) == 0
    assert run(["json", "blob-transform", "--step", "embed", "--input-format", "cbor",
                "--in", str(t2), "--out", str(t3)]) == 0
    simple = cbor.encode(json_to_cbor(parse_json(blob.read_text())))
    assert len(t1.read_bytes()) == len(simple) - 14


def test_blob_transform_size_mismatch_exit_1(tmp_path):
    blob = tmp_path / "bad.json"
    blob.write_text('{"content":"aGk=","encoding":"base64","size":3}')
    t1 = tmp_path / "t1.cbor"
    assert run(["json", "blob-transform", "--step", "tag34", "--in", str(blob), "--out", str(t1)]) == 0
    assert run(["json", "blob-transform", "--step", "bstr", "--input-format", "cbor",
                "--in", str(t1), "--out", str(tmp_path / "t2.cbor")]) == 1


def test_json_analyze(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text('{"a":1}')
    (corpus / "b.json").write_text('[1.5, 1.5, 1.5, "text", "text"]')
    (corpus / "broken.json").write_text("{nope")
    out = tmp_path / "report.csv"
    assert run(["json", "analyze", "--in", str(corpus), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[:4] == ["file", "minified_size", "cbor_size", "savings_b"]
    assert len(lines) == 3  # header + two parsable files
    assert lines[1].startswith("a.json,7,4,3,")


def test_dns_conversion_round_trip(tmp_path):
    wire = tmp_path / "msg.bin"
    wire.write_bytes(encode_wire(cname_referral_response()))
    for mode in (*analysis.MODES, "none"):
        out = tmp_path / ("m.%s.cbor" % mode)
        back = tmp_path / ("m.%s.bin" % mode)
        assert run(["dns", "to-cbor", "--in", str(wire), "--out", str(out),
                    "--role", "r", "--mode", mode]) == 0
        assert run(["dns", "from-cbor", "--in", str(out), "--out", str(back),
                    "--role", "r", "--mode", mode]) == 0
        assert decode_wire(back.read_bytes()) == cname_referral_response()


def test_dns_mode_none_is_unpacked(tmp_path):
    wire = tmp_path / "msg.bin"
    wire.write_bytes(encode_wire(cname_referral_response()))
    outputs = {}
    for mode in ("none", "unpacked"):
        out = tmp_path / ("m.%s.cbor" % mode)
        back = tmp_path / ("m.%s.bin" % mode)
        assert run(["dns", "to-cbor", "--in", str(wire), "--out", str(out),
                    "--role", "r", "--mode", mode]) == 0
        # Each name decodes the other's output, so from-cbor is compared on the same input.
        assert run(["dns", "from-cbor", "--in", str(tmp_path / "m.none.cbor"), "--out", str(back),
                    "--role", "r", "--mode", mode]) == 0
        outputs[mode] = (out.read_bytes(), back.read_bytes())
    assert outputs["none"] == outputs["unpacked"]


def test_dns_to_cbor_with_request_elision(tmp_path):
    wire = tmp_path / "msg.bin"
    wire.write_bytes(encode_wire(cname_referral_response()))
    request = tmp_path / "request.bin"
    request.write_bytes(encode_wire(DnsMessage(
        9, 0x0100, [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)]
    )))
    bare = tmp_path / "bare.cbor"
    elided = tmp_path / "elided.cbor"
    assert run(["dns", "to-cbor", "--in", str(wire), "--out", str(bare),
                "--role", "r", "--mode", "none"]) == 0
    assert run(["dns", "to-cbor", "--in", str(wire), "--out", str(elided),
                "--role", "r", "--mode", "none", "--request", str(request)]) == 0
    assert len(elided.read_bytes()) < len(bare.read_bytes())
    back = tmp_path / "back.bin"
    assert run(["dns", "from-cbor", "--in", str(elided), "--out", str(back),
                "--role", "r", "--mode", "none", "--request", str(request)]) == 0
    assert decode_wire(back.read_bytes()) == cname_referral_response()


def test_dns_compare_csv(tmp_path):
    corpus = tmp_path / "corpus.hex"
    # id matches the referral response so the pair drives question elision
    query = DnsMessage(0, 0x0100,
                       [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)])
    corpus.write_text(
        encode_wire(query).hex() + "\n" + encode_wire(cname_referral_response()).hex() + "\n"
    )
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("query,0,")
    assert lines[2].startswith("response,1,")  # paired via id+question


def test_dns_suffix_stats(tmp_path):
    corpus = tmp_path / "corpus.hex"
    corpus.write_text(encode_wire(cname_referral_response()).hex() + "\n")
    out = tmp_path / "suffix.csv"
    assert run(["dns", "suffix-stats", "--in", str(corpus), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 7


def test_pcap_extract_and_compare(tmp_path):
    qwire = encode_wire(DnsMessage(5, 0x0100,
                                   [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)]))
    for swapped in (False, True):  # both byte orders of the pcap headers
        capture = tmp_path / ("trace%d.pcap" % swapped)
        capture.write_bytes(build_pcap([build_udp_frame(qwire)], swapped=swapped))
        hex_out = tmp_path / "corpus.hex"
        assert run(["pcap", "extract", "--in", str(capture), "--out", str(hex_out)]) == 0
        assert hex_out.read_text().strip() == qwire.hex()
        # compare consumes pcap directly too
        out = tmp_path / "cmp.csv"
        assert run(["dns", "compare", "--in", str(capture), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 2


def test_pcap_extract_reports_ipv6_extension_headers(tmp_path, capsys):
    qwire = encode_wire(DnsMessage(5, 0x0100,
                                   [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)]))
    frames = [build_udp_frame(qwire, ipv6=True, v6_ext=True), build_udp_frame(qwire, ipv6=True)]
    capture = tmp_path / "trace.pcap"
    capture.write_bytes(build_pcap(frames))
    hex_out = tmp_path / "corpus.hex"
    assert run(["pcap", "extract", "--in", str(capture), "--out", str(hex_out)]) == 0
    assert hex_out.read_text().split() == [qwire.hex(), qwire.hex()]
    assert capsys.readouterr().err.splitlines() == [
        "pcap: 2 packets, 2 decoded, 0 non-DNS, 0 undecodable, 1 IPv6 extension header(s)"]


def _pcap_with_a_truncated_payload(tmp_path) -> Path:
    qwire = encode_wire(DnsMessage(5, 0x0100,
                                   [Question(Name.from_text("x.org"), TYPE_A, CLASS_IN)]))
    frames = [
        build_udp_frame(qwire),
        build_udp_frame(b"payload", sport=40000, dport=9999),  # non-DNS UDP
        build_udp_frame(qwire[:7], dport=53),  # a DNS header cut short
    ]
    capture = tmp_path / "trace.pcap"
    capture.write_bytes(build_pcap(frames))
    return capture


@pytest.mark.parametrize("command", [["pcap", "extract"], ["dns", "compare"]])
def test_an_undecodable_dns_payload_is_named_and_counted(tmp_path, capsys, command):
    capture = _pcap_with_a_truncated_payload(tmp_path)
    out = tmp_path / "out"
    assert run(command + ["--in", str(capture), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == (1 if command[0] == "pcap" else 2)
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("packet 3 skipped: Truncated: ")
    assert err[1:] == [
        "1 packet(s) skipped",
        "pcap: 3 packets, 1 decoded, 1 non-DNS, 1 undecodable, 0 IPv6 extension header(s)",
    ]


def test_the_pcap_line_comes_before_an_unwritable_out(tmp_path, capsys):
    capture = _pcap_with_a_truncated_payload(tmp_path)
    assert run(["pcap", "extract", "--in", str(capture), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[2].startswith("pcap: 3 packets, ") and err[3].startswith("error: ")


def test_dns_compare_counts_every_skip_it_names_from_hex(tmp_path, capsys, monkeypatch):
    rng = random.Random(17)
    wires = [encode_wire(random_message(rng)) for _ in range(6)]
    corpus = tmp_path / "corpus.hex"
    corpus.write_text("zz\n" + "".join(wire.hex() + "\n" for wire in wires) + "0c\n# note\n7\n")
    compare_modes = analysis.compare_modes

    def failing_on_the_second(msg, *args):
        if encode_wire(msg) == wires[1]:
            raise KeyError("ttl")
        return compare_modes(msg, *args)

    monkeypatch.setattr(analysis, "compare_modes", failing_on_the_second)
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    counts = reconcile_stderr(capsys.readouterr().err.splitlines())
    assert counts == {"line": 3, "message": 1}
    assert len(out.read_text().splitlines()) - 1 + counts["message"] == len(wires)


def test_dns_compare_counts_every_skip_it_names_from_pcap(tmp_path, capsys):
    capture = _pcap_with_a_truncated_payload(tmp_path)
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(capture), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert reconcile_stderr(err) == {"packet": 1}
    decoded = int(re.search(r", (\d+) decoded,", err[-1])[1])
    assert len(out.read_text().splitlines()) - 1 == decoded == 1


@pytest.mark.parametrize("command", [["json", "to-cbor"], ["json", "minify"],
                                     ["json", "blob-transform", "--step", "tag34"],
                                     ["bench", "--target", "cbor", "--iterations", "1"]])
def test_json_input_errors_are_at_file_byte_offsets(tmp_path, capsys, command):
    source = tmp_path / "doc.json"
    for data, error in ((b"[1,\r\n x]", "(at byte 6)"),
                        (b"[1, \xff]", "invalid UTF-8: invalid start byte (at byte 4)")):
        source.write_bytes(data)
        assert run(command + ["--in", str(source)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].endswith(error)


def test_json_analyze_skips_invalid_utf8_as_a_syntax_error(tmp_path, capsys):
    (tmp_path / "a.json").write_bytes(b"[1, \xff]")
    (tmp_path / "b.json").write_bytes(b"[1]")
    out = tmp_path / "report.csv"
    assert run(["json", "analyze", "--in", str(tmp_path), "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["b.json"]
    assert capsys.readouterr().err.splitlines() == [
        "a.json skipped: JsonSyntaxError: invalid UTF-8: invalid start byte (at byte 4)",
        "1 file(s) skipped",
    ]


def test_bench_smoke(tmp_path, capsys):
    for target in ("json", "cbor", "dnswire", "dnscbor"):
        assert run(["bench", "--target", target, "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "encode" in out or "parse" in out
        assert "n=3" in out


def test_usage_errors_exit_2():
    assert run([]) == 2
    assert run(["dns"]) == 2
    assert run(["dns", "to-cbor", "--in", "x"]) == 2  # missing --role
    assert run(["bench", "--target", "nope"]) == 2
    assert run(["dns", "compare", "--in", "x", "--parallel", "2"]) == 2  # no such option


def test_no_module_loads_a_process_pool():
    # Every run is one process: nothing should pay for the pool machinery.
    probe = (
        "import importlib, pkgutil, sys, cborkit\n"
        "for info in pkgutil.iter_modules(cborkit.__path__):\n"
        "    importlib.import_module('cborkit.' + info.name)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = str(Path(cborkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_package_root_imports_no_module(tmp_path):
    # A codec import leaves the CLI unloaded, so ``-m cborkit.cli`` runs
    # without the warning about a module already in sys.modules.
    env = {"PYTHONPATH": str(Path(cborkit.__file__).resolve().parents[1])}
    probe = ("import sys, cborkit.dnswire\n"
             "print([m for m in ('cborkit.cli', 'argparse') if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
    infile = tmp_path / "item.cbor"
    infile.write_bytes(bytes.fromhex("a1616101"))
    command = ["-W", "error::RuntimeWarning", "-m", "cborkit.cli", "cbor", "diag", "--in", str(infile)]
    done = subprocess.run([sys.executable, *command], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, '{"a": 1}\n', "")


def test_missing_file_exit_1(tmp_path):
    assert run(["cbor", "diag", "--in", str(tmp_path / "absent.bin")]) == 1
    assert run(["dns", "compare", "--in", str(tmp_path / "absent"), "--out", "x"]) == 1


def test_dns_compare_keeps_row_order_around_a_skipped_message(tmp_path, capsys):
    rng = random.Random(9)
    lines = [encode_wire(random_message(rng)).hex() for _ in range(60)]
    two_questions = DnsMessage(7, 0x0100, [
        Question(Name.from_text("a.org"), TYPE_A, CLASS_IN),
        Question(Name.from_text("b.org"), TYPE_A, CLASS_IN),
    ])
    without = tmp_path / "without.hex"
    without.write_text("\n".join(lines) + "\n")
    assert run(["dns", "compare", "--in", str(without), "--out", str(tmp_path / "without.csv")]) == 0
    lines.insert(25, encode_wire(two_questions).hex())  # skipped: one question required
    corpus = tmp_path / "corpus.hex"
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    assert "message 25 skipped" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 60
    assert out.read_text() == (tmp_path / "without.csv").read_text()


def _compare_with_fourth_message_raising(tmp_path, monkeypatch, exc):
    """CSV rows of an unpatched run, and of a run where compare_modes
    raises ``exc`` on the fourth message."""
    rng = random.Random(11)
    wires = [encode_wire(random_message(rng)) for _ in range(8)]
    corpus = tmp_path / "corpus.hex"
    corpus.write_text("".join(wire.hex() + "\n" for wire in wires))
    full = tmp_path / "full.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(full)]) == 0
    compare_modes = analysis.compare_modes

    def failing_on_the_fourth(msg, *args):
        if encode_wire(msg) == wires[3]:
            raise exc
        return compare_modes(msg, *args)

    monkeypatch.setattr(analysis, "compare_modes", failing_on_the_fourth)
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    return full.read_text().splitlines(), out.read_text().splitlines()


def test_dns_compare_skips_a_message_raising_a_cbor_error(tmp_path, capsys, monkeypatch):
    rows, out = _compare_with_fourth_message_raising(
        tmp_path, monkeypatch, cbor.InvalidUtf8("lone surrogate")
    )
    err = capsys.readouterr().err
    assert err.count("skipped:") == 1
    assert "message 3 skipped: InvalidUtf8: lone surrogate" in err
    assert out == rows[:4] + rows[5:]


def test_dns_compare_skips_a_message_raising_any_exception(tmp_path, capsys, monkeypatch):
    rows, out = _compare_with_fourth_message_raising(tmp_path, monkeypatch, KeyError("ttl"))
    err = capsys.readouterr().err
    assert err.count("skipped:") == 1
    assert "message 3 skipped: KeyError: 'ttl'" in err
    assert out == rows[:4] + rows[5:]


def test_dns_compare_skips_the_component_modes_of_a_label_that_is_not_utf8(tmp_path, capsys):
    rng = random.Random(13)
    wires = [encode_wire(random_message(rng)) for _ in range(4)]
    # RFC 1035 allows any octets in a label; component mode needs UTF-8 text.
    odd = DnsMessage(7, 0x0100, [Question(Name((b"\xff\xfe", b"example", b"org")), TYPE_A, CLASS_IN)])
    good = tmp_path / "good.hex"
    good.write_text("".join(wire.hex() + "\n" for wire in wires))
    assert run(["dns", "compare", "--in", str(good), "--out", str(tmp_path / "good.csv")]) == 0
    good_rows = (tmp_path / "good.csv").read_text().splitlines()
    capsys.readouterr()
    corpus = tmp_path / "corpus.hex"
    corpus.write_text("".join(wire.hex() + "\n" for wire in wires[:2] + [encode_wire(odd)] + wires[2:]))
    ctx = CodecContext(ROLE_QUERY)
    want = {mode: str(len(analysis.encode_in_mode(odd, ctx, mode).data))
            for mode in ("unpacked", "packedlite", "packedfull")}
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[:3] + rows[4:] == good_rows
    row = dict(zip(analysis.CSV_COLUMNS, rows[3].split(",")))
    assert row["classic_size"] == str(len(encode_wire(odd)))
    assert {mode: row[mode + "_size"] for mode in want} == want
    assert [row["%s_%s" % (mode, col)] for mode in ("compref10", "compref11")
            for col in ("size", "b", "g")] == [""] * 6
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("message 2 compref10/compref11 skipped: TypeMismatch: ")


def test_dns_compare_names_bad_hex_lines_in_the_skip_form(tmp_path, capsys):
    corpus = tmp_path / "corpus.hex"
    corpus.write_text(encode_wire(cname_referral_response()).hex() + "\nzz\n0c\n")
    out = tmp_path / "report.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == [
        ["line 2 skipped", "ValueError"], ["line 3 skipped", "Truncated"], ["2 line(s) skipped"],
    ]


def test_dns_suffix_stats_skips_a_message_and_keeps_the_indices(tmp_path, capsys, monkeypatch):
    messages = [cname_referral_response() for _ in range(4)]
    for index, msg in enumerate(messages):
        msg.id = index
    corpus = tmp_path / "corpus.hex"
    corpus.write_text("".join(encode_wire(msg).hex() + "\n" for msg in messages))
    full = tmp_path / "full.csv"
    assert run(["dns", "suffix-stats", "--in", str(corpus), "--out", str(full)]) == 0
    message_pair_stats = analysis.message_pair_stats

    def failing_on_the_third(msg):
        if msg.id == 2:
            raise KeyError("labels")
        return message_pair_stats(msg)

    monkeypatch.setattr(analysis, "message_pair_stats", failing_on_the_third)
    out = tmp_path / "report.csv"
    assert run(["dns", "suffix-stats", "--in", str(corpus), "--out", str(out)]) == 0
    rows = full.read_text().splitlines()
    assert sum(row.startswith("2,") for row in rows) == 6
    assert out.read_text().splitlines() == [row for row in rows if not row.startswith("2,")]
    err = capsys.readouterr().err
    assert err.splitlines() == ["message 2 skipped: KeyError: 'labels'", "1 message(s) skipped"]


@pytest.mark.parametrize("depth", [200, 600, 1500, 100_000])
def test_json_analyze_skips_too_deep_file(tmp_path, capsys, depth):
    # Past Python's recursion limit (about 1000 levels) the parser gives up first.
    error = {200: "DepthExceeded", 600: "DepthExceeded", 1500: "(DepthExceeded|JsonSyntaxError)",
             100_000: "JsonSyntaxError"}[depth]
    (tmp_path / "flat.json").write_text("[1]")
    (tmp_path / "deep.json").write_text("[" * depth + "]" * depth)
    out = tmp_path / "report.csv"
    assert run(["json", "analyze", "--in", str(tmp_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("flat.json,")
    err = capsys.readouterr().err
    assert re.search(r"^deep\.json skipped: %s: " % error, err, re.M)
    assert "1 file(s) skipped" in err


def test_parser_is_reused_across_runs(tmp_path, capsys):
    from cborkit import cli

    hex_item = tmp_path / "item.hex"
    hex_item.write_text("0c\n")
    binary_item = tmp_path / "item.bin"
    binary_item.write_bytes(b"\x0c")
    assert run(["cbor", "diag", "--in", str(hex_item), "--hex"]) == 0
    parser = cli._parser()
    assert run(["cbor", "diag", "--in", str(binary_item)]) == 0  # --hex does not carry over
    assert capsys.readouterr().out.split() == ["12", "12"]
    assert cli._parser() is parser


def test_json_analyze_skips_a_lone_surrogate(tmp_path, capsys):
    # "\ud800" is valid JSON syntax, but the text has no UTF-8 form.
    (tmp_path / "a.json").write_text('{"a":1}')
    (tmp_path / "b.json").write_text('["\\ud800"]')
    (tmp_path / "c.json").write_text('{"\\udfff":1}')
    (tmp_path / "d.json").write_text("[1]")
    out = tmp_path / "report.csv"
    assert run(["json", "analyze", "--in", str(tmp_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["a.json", "d.json"]
    err = capsys.readouterr().err
    assert "b.json skipped: InvalidUtf8: " in err
    assert "c.json skipped: InvalidUtf8: " in err and "2 file(s) skipped" in err


def test_json_minify_lone_surrogate_is_exit_1(tmp_path, capsys):
    source = tmp_path / "s.json"
    source.write_text('["\\ud800"]')
    out = tmp_path / "min.json"
    assert run(["json", "minify", "--in", str(source), "--out", str(out)]) == 1
    assert not out.exists()
    assert run(["json", "minify", "--in", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: ") == 2


# Integers beyond 64 bits become floats, which are narrower under
# ``--float-mode smallest`` when a narrower width holds them exactly (any
# power of two up to 2**127) and overflow to infinity past a double's range.
_wide_ints = st.one_of(
    st.tuples(st.integers(64, 1100), st.sampled_from((1, -1))).map(lambda t: t[1] * 2 ** t[0]),
    st.integers(2**64, 2**90),
    st.integers(-(2**90), -(2**64) - 1),
    st.integers(-(2**64), 2**64 - 1),
)
_numbers = st.one_of(
    _wide_ints.map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e400", "-1e400", "-0", "-0.0", "65504.0", "1.5", "0.1"]),
).map(JsonNumber)
_documents = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.tuples(st.text(max_size=4), children), max_size=4).map(JsonObject),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None)
@given(_documents)
def test_json_analyze_cbor_size_is_the_encoded_size(value):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "v.json").write_text(minify(value), encoding="utf-8")
        for mode in FLOAT_MODES:
            out = Path(tmp) / ("%s.csv" % mode)
            assert run(["json", "analyze", "--in", tmp, "--out", str(out), "--float-mode", mode]) == 0
            row = out.read_text().splitlines()[1].split(",")
            item = json_to_cbor(value, mode)
            assert int(row[2]) == cbor.item_size(item, cbor.EncodeOptions(float_mode=mode))



# Bad JSON files, each with the exception class it is skipped with.
_bad_files = {
    "deep": ("[" * 200 + "]" * 200, "DepthExceeded"),
    "surrogate": ('["\\ud800"]', "InvalidUtf8"),
    "syntax": ("{nope", "JsonSyntaxError"),
}


def _analyze_rows_and_stderr(directory: Path) -> tuple[list[str], str]:
    out = directory.with_suffix(".csv")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(["json", "analyze", "--in", str(directory), "--out", str(out)]) == 0
    return out.read_text().splitlines(), err.getvalue()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.one_of(_documents.map(lambda value: (minify(value), None)),
                          st.sampled_from(sorted(_bad_files.values()))), max_size=6))
def test_json_analyze_skips_each_bad_file_once(files):
    with tempfile.TemporaryDirectory() as tmp:
        mixed, alone = Path(tmp, "mixed"), Path(tmp, "alone")
        mixed.mkdir()
        alone.mkdir()
        bad = {}
        for index, (text, error) in enumerate(files):
            name = "%02d.json" % index
            (mixed / name).write_text(text, encoding="utf-8")
            if error is None:
                (alone / name).write_text(text, encoding="utf-8")
            else:
                bad[name] = error
        rows, err = _analyze_rows_and_stderr(mixed)
        good_rows, good_err = _analyze_rows_and_stderr(alone)
    assert good_err == ""
    assert rows == good_rows
    skip_lines = [line for line in err.splitlines() if " skipped: " in line]
    assert len(rows) - 1 + len(skip_lines) == len(files)
    for name, error in bad.items():
        assert sum(line.startswith(name + " skipped: ") for line in skip_lines) == 1
        assert "%s skipped: %s: " % (name, error) in err
    summary = [line for line in err.splitlines() if " skipped: " not in line]
    assert summary == (["%d file(s) skipped" % len(bad)] if bad else [])
