"""Batch command-line front-end.

Every subcommand is a thin composition over the library modules; no
conversion or analysis logic lives here.  Exit codes: 0 success, 1
input errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import statistics
import sys
import time
from pathlib import Path

from . import analysis, cbor, dnscbor, dnspacked, jsonbridge, taxonomy
from .cbor import EncodeOptions
from .dnscbor import CodecContext, ROLE_QUERY, ROLE_RESPONSE
from .dnswire import (
    CLASS_IN,
    DnsMessage,
    DnsWireError,
    Name,
    Question,
    ResourceRecord,
    TYPE_A,
    decode_wire,
    encode_wire,
    name_rdata,
)

FLOAT_MODES = (cbor.FLOAT_PRESERVE, cbor.FLOAT_FORCE_DOUBLE, cbor.FLOAT_SMALLEST)

BENCH_TARGETS = ("json", "cbor", "dnswire", "dnscbor")


class CliError(Exception):
    pass


def _report(skips: list[tuple[str, Exception]], noun: str | None = None) -> None:
    """Name each dropped input on stderr and, given a noun, count them."""
    for label, exc in skips:
        print("%s skipped: %s: %s" % (label, type(exc).__name__, exc), file=sys.stderr)
    if skips and noun:
        print("%d %s(s) skipped" % (len(skips), noun), file=sys.stderr)


def _run_batch(fn, inputs: list, noun: str, labels: list[str] | None = None) -> dict:
    """Map ``fn`` over ``inputs`` in order; return {input index: result} for
    the inputs that did not raise, and report the rest, each labelled by
    its label, else by noun and index."""
    results = {}
    skips = []
    for index, arg in enumerate(inputs):
        try:
            results[index] = fn(arg)
        except Exception as exc:  # one bad input never ends the run
            skips.append((labels[index] if labels else "%s %d" % (noun, index), exc))
    _report(skips, noun)
    return results


def _write_output(data: bytes, out: str | None, as_hex: bool) -> None:
    if out:
        Path(out).write_bytes(data.hex().encode() + b"\n" if as_hex else data)
    else:
        sys.stdout.write(data.hex() + "\n")


def _write_text(text: str, out: str | None) -> None:
    # A lone surrogate (valid JSON escape) raises InvalidUtf8 before any output.
    data = cbor.utf8(text)
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_cbor_input(path: str, as_hex: bool) -> bytes:
    raw = Path(path).read_bytes()
    if as_hex:
        try:
            return bytes.fromhex("".join(raw.decode("ascii").split()))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CliError("bad hex input: %s" % exc) from exc
    return raw


def _decode_one(data: bytes) -> cbor.CborItem:
    item, consumed = cbor.decode(data)
    if consumed != len(data):
        raise CliError("trailing bytes after CBOR item")
    return item


def _write_item(item: cbor.CborItem, args) -> None:
    _write_output(cbor.encode(item, EncodeOptions(float_mode=args.float_mode)), args.out, args.hex)


def _report_flags(report: list[str]) -> None:
    for flag in report:
        print("note: %s" % flag, file=sys.stderr)


def _make_context(args) -> CodecContext:
    request_question = None
    if args.request:
        request = decode_wire(Path(args.request).read_bytes())
        if not request.questions:
            raise CliError("request file carries no question")
        request_question = request.questions[0]
    return CodecContext(
        role=ROLE_RESPONSE if args.role == "r" else ROLE_QUERY,
        request_question=request_question,
        allow_query_answers=args.query_answers,
        structured_rdata=not args.opaque_rdata,
    )


def _cmd_cbor_encode(args) -> int:
    _write_item(_decode_one(_load_cbor_input(args.infile, as_hex=True)), args)
    return 0


def _cmd_cbor_decode(args) -> int:
    items = cbor.decode_sequence(_load_cbor_input(args.infile, args.hex))
    _write_text("".join(cbor.to_diagnostic(item) + "\n" for item in items), args.out)
    return 0


def _cmd_cbor_diag(args) -> int:
    item = _decode_one(_load_cbor_input(args.infile, args.hex))
    _write_text(cbor.to_diagnostic(item) + "\n", args.out)
    return 0


def _cmd_json_to_cbor(args) -> int:
    report: list[str] = []
    value = jsonbridge.parse_json(Path(args.infile).read_bytes())
    item = jsonbridge.json_to_cbor(value, args.float_mode, report)
    _report_flags(report)
    _write_item(item, args)
    return 0


def _cmd_json_from_cbor(args) -> int:
    item = _decode_one(_load_cbor_input(args.infile, args.hex))
    report: list[str] = []
    value = jsonbridge.cbor_to_json(item, report)
    _report_flags(report)
    _write_text(jsonbridge.minify(value), args.out)
    return 0


def _cmd_json_minify(args) -> int:
    value = jsonbridge.parse_json(Path(args.infile).read_bytes())
    _write_text(jsonbridge.minify(value), args.out)
    return 0


def _cmd_json_blob(args) -> int:
    if args.input_format == "json":
        value = jsonbridge.parse_json(Path(args.infile).read_bytes())
        item = jsonbridge.json_to_cbor(value, args.float_mode)
    else:
        item = _decode_one(_load_cbor_input(args.infile, args.hex))
    report: list[str] = []
    if args.step == "tag34":
        item = jsonbridge.blob_tag_base64(item)
    elif args.step == "bstr":
        item = jsonbridge.blob_to_bstr(item)
    else:
        item = jsonbridge.blob_embed_cbor(item, args.float_mode, report)
    _report_flags(report)
    _write_item(item, args)
    return 0


_ANALYZE_COLUMNS = ["file", "minified_size", "cbor_size", "savings_b", "gain_g", "tier",
                    "content_type", "redundancy", "structure"]


def _analyze_one(float_mode: str, path: Path) -> list:
    value = jsonbridge.parse_json(path.read_bytes())
    # Converting first rejects a too-deep document before minify recurses into it.
    item = jsonbridge.json_to_cbor(value, float_mode)
    minified = len(cbor.utf8(jsonbridge.minify(value)))
    record = taxonomy.classify(item, minified)
    report = taxonomy.compute_savings(minified, record.encoded_size)
    return [path.name, minified, record.encoded_size, report.savings_b, "%.6f" % report.gain_g,
            record.tier, record.content_type, record.redundancy, record.structure]


def _cmd_json_analyze(args) -> int:
    directory = Path(args.infile)
    if not directory.is_dir():
        raise CliError("%s is not a directory" % directory)
    paths = sorted(directory.glob("*.json"))
    analyze = functools.partial(_analyze_one, args.float_mode)
    rows = _run_batch(analyze, paths, "file", [path.name for path in paths])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_ANALYZE_COLUMNS)
    writer.writerows(rows.values())
    _write_text(buffer.getvalue(), args.out)
    return 0


def _cmd_dns_to_cbor(args) -> int:
    msg = decode_wire(Path(args.infile).read_bytes())
    encoded = analysis.encode_in_mode(msg, _make_context(args), args.mode)
    if encoded.dropped_answers:
        print(
            "note: %d query answer record(s) dropped" % encoded.dropped_answers,
            file=sys.stderr,
        )
    _write_output(encoded.data, args.out, args.hex)
    return 0


def _cmd_dns_from_cbor(args) -> int:
    data = _load_cbor_input(args.infile, args.hex)
    msg = analysis.decode_in_mode(data, _make_context(args), args.mode)
    _write_output(encode_wire(msg, compress=not args.no_compress), args.out, args.hex)
    return 0


def _read_pcap(data: bytes) -> list[analysis.Record]:
    records, skips, stats = analysis.ingest_pcap(data)
    _report(skips, "packet")
    print(
        "pcap: %d packets, %d decoded, %d non-DNS, %d undecodable, %d IPv6 extension header(s)"
        % (stats.packets, len(records), stats.skipped_non_dns, len(skips),
           stats.ipv6_extension_headers),
        file=sys.stderr,
    )
    return records


def _load_corpus(path: str) -> list[analysis.Record]:
    data = Path(path).read_bytes()
    if data[:4] in analysis.PCAP_MAGICS:
        return _read_pcap(data)
    records, skips = analysis.ingest_hex(data.decode("utf-8", errors="replace").splitlines())
    _report(skips, "line")
    return records


def _cmd_dns_compare(args) -> int:
    records = _load_corpus(args.infile)
    pairs = analysis.pair_queries_responses(records)
    request_for = {id(response): query.message for query, response in pairs if query}
    rows = _run_batch(lambda record: analysis.compare_modes(
        record.message, request_for.get(id(record)), args.query_answers), records, "message")
    _report([("message %d %s" % (index, "/".join(m for m in analysis.MODES if m not in row.sizes)),
              row.skipped) for index, row in rows.items() if row.skipped is not None])
    _write_text(analysis.write_csv(rows.values()), args.out)
    return 0


def _cmd_dns_suffix_stats(args) -> int:
    messages = [record.message for record in _load_corpus(args.infile)]
    stats = _run_batch(analysis.message_pair_stats, messages, "message")
    _write_text(analysis.write_suffix_csv(stats.items()), args.out)
    return 0


def _cmd_pcap_extract(args) -> int:
    records = _read_pcap(Path(args.infile).read_bytes())
    lines = [encode_wire(record.message).hex() for record in records]
    _write_text("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


_BENCH_JSON = (
    b'{"name":"status","count":12,"tags":["a","b","c"],"nested":{"ok":true,'
    b'"ratio":0.25,"ids":[1,2,3,4,5,6,7,8]},"blob":"aGVsbG8gd29ybGQ="}'
)


def _bench_fixture_message():
    return DnsMessage(
        0,
        0x8180,
        [Question(Name.from_text("www.example.org"), TYPE_A, CLASS_IN)],
        answers=[
            ResourceRecord(Name.from_text("www.example.org"), 5, CLASS_IN, 3218, name_rdata("example.org")),
            ResourceRecord(Name.from_text("example.org"), TYPE_A, CLASS_IN, 3218, bytes([198, 51, 100, 35])),
        ],
    )


def _time_us(fn, iterations: int) -> tuple[float, float]:
    samples = []
    for _ in range(iterations):
        start = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - start) / 1000.0)
    mean = statistics.fmean(samples)
    stddev = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return mean, stddev


def _cmd_bench(args) -> int:
    iterations = args.iterations
    operations = {}
    if args.target == "json":
        data = Path(args.infile).read_bytes() if args.infile else _BENCH_JSON
        value = jsonbridge.parse_json(data)
        operations["parse"] = lambda: jsonbridge.parse_json(data)
        operations["minify"] = lambda: jsonbridge.minify(value)
    elif args.target == "cbor":
        data = Path(args.infile).read_bytes() if args.infile else _BENCH_JSON
        item = jsonbridge.json_to_cbor(jsonbridge.parse_json(data))
        blob = cbor.encode(item)
        operations["encode"] = lambda: cbor.encode(item)
        operations["decode"] = lambda: cbor.decode(blob)
    elif args.target == "dnswire":
        msg = decode_wire(Path(args.infile).read_bytes()) if args.infile else _bench_fixture_message()
        wire = encode_wire(msg)
        operations["encode"] = lambda: encode_wire(msg)
        operations["decode"] = lambda: decode_wire(wire)
    else:
        msg = decode_wire(Path(args.infile).read_bytes()) if args.infile else _bench_fixture_message()
        role = ROLE_RESPONSE if msg.is_response else ROLE_QUERY
        ctx = CodecContext(role=role)
        encoded = dnscbor.encode_message(msg, ctx)
        operations["encode"] = lambda: dnscbor.encode_message(msg, ctx)
        operations["decode"] = lambda: dnscbor.decode_message(encoded.data, ctx)
    for label, fn in operations.items():
        mean, stddev = _time_us(fn, iterations)
        print("%s %s: %.1f +/- %.1f us (n=%d)" % (args.target, label, mean, stddev, iterations))
    return 0


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError("%s is below 1" % text)
    return int(text)


def _add_io(parser, binary: bool = True) -> None:
    parser.add_argument("--in", dest="infile", required=True, help="input file")
    parser.add_argument("--out", dest="out", help="output file")
    if binary:
        parser.add_argument(
            "--hex", action="store_true", help="treat binary input/output as hex text"
        )


def _add_dns_mode(parser) -> None:
    parser.add_argument("--role", choices=("q", "r"), required=True)
    parser.add_argument(
        "--mode",
        # The older name of the plain mode is still accepted, and is the default.
        type=lambda name: "unpacked" if name == "none" else name,
        choices=analysis.MODES,
        default="none",
    )
    parser.add_argument("--request", help="wire-format request for question elision")
    parser.add_argument(
        "--query-answers",
        action="store_true",
        help="let queries carry an answer section (top elision priority)",
    )
    parser.add_argument(
        "--opaque-rdata",
        action="store_true",
        help="carry all rdata as raw byte strings",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cborkit")
    sub = parser.add_subparsers(dest="group", required=True)

    cbor_p = sub.add_parser("cbor", help="raw CBOR item operations")
    cbor_sub = cbor_p.add_subparsers(dest="action", required=True)
    p = cbor_sub.add_parser("encode", help="hex item in, canonical bytes out")
    _add_io(p)
    p.add_argument("--float-mode", choices=FLOAT_MODES, default=cbor.FLOAT_PRESERVE)
    p.set_defaults(func=_cmd_cbor_encode)
    p = cbor_sub.add_parser("decode", help="print diagnostics for a CBOR sequence")
    _add_io(p)
    p.set_defaults(func=_cmd_cbor_decode)
    p = cbor_sub.add_parser("diag", help="print diagnostic notation for one item")
    _add_io(p)
    p.set_defaults(func=_cmd_cbor_diag)

    json_p = sub.add_parser("json", help="JSON bridge operations")
    json_sub = json_p.add_subparsers(dest="action", required=True)
    p = json_sub.add_parser("to-cbor")
    _add_io(p)
    p.add_argument("--float-mode", choices=FLOAT_MODES, default=cbor.FLOAT_SMALLEST)
    p.set_defaults(func=_cmd_json_to_cbor)
    p = json_sub.add_parser("from-cbor")
    _add_io(p)
    p.set_defaults(func=_cmd_json_from_cbor)
    p = json_sub.add_parser("minify")
    _add_io(p, binary=False)
    p.set_defaults(func=_cmd_json_minify)
    p = json_sub.add_parser("blob-transform")
    _add_io(p)
    p.add_argument("--step", choices=("tag34", "bstr", "embed"), required=True)
    p.add_argument("--input-format", choices=("json", "cbor"), default="json")
    p.add_argument("--float-mode", choices=FLOAT_MODES, default=cbor.FLOAT_SMALLEST)
    p.set_defaults(func=_cmd_json_blob)
    p = json_sub.add_parser("analyze", help="taxonomy and savings CSV for a directory")
    _add_io(p, binary=False)
    p.add_argument("--float-mode", choices=FLOAT_MODES, default=cbor.FLOAT_SMALLEST)
    p.set_defaults(func=_cmd_json_analyze)

    dns_p = sub.add_parser("dns", help="DNS message conversions and analysis")
    dns_sub = dns_p.add_subparsers(dest="action", required=True)
    p = dns_sub.add_parser("to-cbor")
    _add_io(p)
    _add_dns_mode(p)
    p.set_defaults(func=_cmd_dns_to_cbor)
    p = dns_sub.add_parser("from-cbor")
    _add_io(p)
    _add_dns_mode(p)
    p.add_argument("--no-compress", action="store_true", help="emit wire form without pointers")
    p.set_defaults(func=_cmd_dns_from_cbor)
    p = dns_sub.add_parser("compare", help="per-message size comparison CSV")
    _add_io(p, binary=False)
    p.add_argument("--query-answers", action="store_true")
    p.set_defaults(func=_cmd_dns_compare)
    p = dns_sub.add_parser("suffix-stats", help="pairwise name/address statistics CSV")
    _add_io(p, binary=False)
    p.set_defaults(func=_cmd_dns_suffix_stats)

    pcap_p = sub.add_parser("pcap", help="packet capture utilities")
    pcap_sub = pcap_p.add_subparsers(dest="action", required=True)
    p = pcap_sub.add_parser("extract", help="pcap to hex corpus")
    _add_io(p, binary=False)
    p.set_defaults(func=_cmd_pcap_extract)

    p = sub.add_parser("bench", help="non-asserting runtime report")
    p.add_argument("--target", choices=BENCH_TARGETS, required=True)
    p.add_argument("--iterations", type=_at_least_one, default=100)
    p.add_argument("--in", dest="infile", help="optional fixture input")
    p.set_defaults(func=_cmd_bench)

    return parser


# Any failure to read an input or write an output is an input error too.
_INPUT_ERRORS = (
    CliError,
    OSError,
    cbor.CborError,
    jsonbridge.JsonBridgeError,
    taxonomy.TaxonomyError,
    DnsWireError,
    dnscbor.DnsCborError,
    dnspacked.DnsPackedError,
    analysis.AnalysisError,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once: no argument has a mutable default or an accumulating
    # action, so parsing leaves the tree unchanged between calls.
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
