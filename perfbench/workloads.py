"""The four workloads: set-up, one batch of ops, and the output checks.

A workload owns a corpus split into batches.  ``run(i)`` pushes batch
``i`` through the program and returns (ops attempted, ops failed); the
timed phase runs every batch in each pass.  ``check()`` runs after the
timed phase, verifies every batch's latest output
against computations made apart from the program, and returns the byte
totals.  Checks raise ``CheckFailed``.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from pathlib import Path

import checks
import corpus

DNS_MODES = ("unpacked", "compref10", "compref11", "packedlite", "packedfull")
DNS_COLUMNS = ["role", "question_elided", "classic_size"] + [
    "%s_%s" % (mode, col) for mode in DNS_MODES for col in ("size", "b", "g")
]
JSON_COLUMNS = ["file", "minified_size", "cbor_size", "savings_b", "gain_g",
                "tier", "content_type", "redundancy", "structure"]
COMPREF10_TAG, COMPREF11_TAG = 7, 140
# Per-layer byte totals: the output of each DNS encoding, by layer.
LAYER_BYTES = {
    "unpacked": "dnscbor.bytes.unpacked",
    "compref10": "dnscbor.bytes.compref10",
    "compref11": "dnscbor.bytes.compref11",
    "packedlite": "dnspacked.bytes.lite",
    "packedfull": "dnspacked.bytes.full",
}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _csv_rows(text: str, columns: list, expected: int, where: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == columns, "%s: CSV header differs" % where)
    _require(len(rows) - 1 == expected, "%s: %d rows for %d inputs" % (where, len(rows) - 1, expected))
    return rows[1:]


def _check_savings(original: int, size: int, b: str, g: str, where: str) -> None:
    _require(int(b) == original - size, "%s: savings_b %s != %d - %d" % (where, b, original, size))
    _require(g == "%.6f" % ((original - size) / original), "%s: gain_g %s" % (where, g))


def pairing(batch: list) -> dict:
    """Response index -> query index, by the rule dns compare documents:
    the earliest unconsumed earlier query with the same id and question."""
    pending: dict = {}
    out = {}
    for i, msg in enumerate(batch):
        key = (msg.id, tuple(l.lower() for l in msg.qname), msg.qtype, msg.qclass)
        if not msg.is_response:
            pending.setdefault(key, []).append(i)
        elif pending.get(key):
            out[i] = pending[key].pop(0)
    return out


def _bytes_totals(classic: int, plain: int, encoded: int, per_mode: dict) -> dict:
    totals = {"bytes_classic": classic, "bytes_cbor": plain, "bytes_encoded": encoded}
    for mode, name in LAYER_BYTES.items():
        totals[name] = per_mode.get(mode, 0)
    return totals


class _DnsEncodings:
    """The program's five encodings of one message, as ``dns compare`` makes them."""

    def __init__(self, kit, msg, request):
        dnscbor, dnspacked = kit.dnscbor, kit.dnspacked
        role = dnscbor.ROLE_RESPONSE if msg.is_response else dnscbor.ROLE_QUERY
        question = request.questions[0] if request is not None and msg.is_response else None

        def ctx(mode):
            return dnscbor.CodecContext(role=role, request_question=question, mode=mode)

        self.contexts = {
            "unpacked": ctx(None),
            "compref10": ctx(dnscbor.ComponentRef.one_plus_zero()),
            "compref11": ctx(dnscbor.ComponentRef.one_plus_one()),
        }
        plain = dnscbor.encode_message(msg, self.contexts["unpacked"])
        self.plain_item = plain.item
        self.question_elided = plain.question_elided
        self.data = {
            "unpacked": plain.data,
            "compref10": dnscbor.encode_message(msg, self.contexts["compref10"]).data,
            "compref11": dnscbor.encode_message(msg, self.contexts["compref11"]).data,
            "packedlite": dnspacked.pack(plain.item, dnspacked.PACKED_LITE).encode(),
            "packedfull": dnspacked.pack(plain.item, dnspacked.PACKED_FULL).encode(),
        }
        self.contexts["packedlite"] = self.contexts["packedfull"] = self.contexts["unpacked"]


class DnsCompare:
    """``dns compare`` through ``cli.run``, one hex corpus file per batch."""

    def __init__(self, kit, workdir: Path, large: bool):
        self.kit = kit
        self.workdir = workdir
        self.large = large
        self.batches: list = []

    def setup(self, seed: int) -> None:
        if self.large:
            self.batches = corpus.large_corpus(seed, rounds=4)
        else:
            self.batches = corpus.small_corpus(seed, batches=5, exchanges=200)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for i, batch in enumerate(self.batches):
            lines = [corpus.to_wire(msg).hex() for msg in batch]
            (self.workdir / ("b%02d.hex" % i)).write_text("\n".join(lines) + "\n")
        self.run(0)  # warm-up

    def __len__(self) -> int:
        return len(self.batches)

    def run(self, i: int) -> tuple[int, int]:
        base = self.workdir / ("b%02d" % i)
        code = self.kit.cli.run(["dns", "compare", "--in", str(base) + ".hex", "--out", str(base) + ".csv"])
        n = len(self.batches[i])
        if code != 0:
            return n, n
        with open(str(base) + ".csv", encoding="utf-8") as f:
            produced = sum(1 for _ in f) - 1
        return n, max(0, n - produced)

    def check(self) -> dict:
        kit = self.kit
        dnspacked = kit.dnspacked
        totals = dict.fromkeys(("classic",) + DNS_MODES, 0)
        for i, batch in enumerate(self.batches):
            where = "batch %d" % i
            text = (self.workdir / ("b%02d.csv" % i)).read_text(encoding="utf-8")
            rows = _csv_rows(text, DNS_COLUMNS, len(batch), where)
            paired = pairing(batch)
            wires = [corpus.to_wire(msg) for msg in batch]
            for j, (msg, row) in enumerate(zip(batch, rows)):
                at = "%s message %d" % (where, j)
                _require(row[0] == ("response" if msg.is_response else "query"), at + ": role")
                classic = int(row[2])
                limit = corpus.uncompressed_length(msg)
                _require(classic < limit if self.large else classic <= limit,
                         "%s: classic size %d against uncompressed %d" % (at, classic, limit))
                program_msg = kit.dnswire.decode_wire(wires[j])
                request = kit.dnswire.decode_wire(wires[paired[j]]) if j in paired else None
                enc = _DnsEncodings(kit, program_msg, request)
                _require(row[1] == ("1" if enc.question_elided else "0"), at + ": question_elided")
                _require(enc.question_elided == (j in paired), at + ": elision against pairing")
                totals["classic"] += classic
                for k, mode in enumerate(DNS_MODES):
                    size, b, g = row[3 + 3 * k : 6 + 3 * k]
                    _require(int(size) == len(enc.data[mode]), "%s: %s size %s" % (at, mode, size))
                    _check_savings(classic, int(size), b, g, "%s %s" % (at, mode))
                    totals[mode] += int(size)
                items = {}
                for mode, data in enc.data.items():
                    try:
                        items[mode] = checks.read_cbor(data)
                    except checks.Malformed as exc:
                        raise CheckFailed("%s: %s output: %s" % (at, mode, exc)) from exc
                refs = checks.count_tags(items["compref10"], COMPREF10_TAG)
                _require(len(enc.data["compref11"]) == len(enc.data["compref10"]) + refs,
                         at + ": compref11 size is not compref10 size + references")
                _require(checks.count_tags(items["compref11"], COMPREF11_TAG) == refs,
                         at + ": compref11 reference count")
                for mode in ("packedlite", "packedfull"):
                    env = dnspacked.PackedEnvelope.from_bytes(enc.data[mode])
                    _require(dnspacked.unpack(env) == enc.plain_item, "%s: unpack(pack(x)) != x (%s)" % (at, mode))
        return _bytes_totals(totals["classic"], totals["unpacked"], sum(totals[m] for m in DNS_MODES), totals)


class DnsRoundTrip:
    """The receiver's side: decode each message from all five encodings
    (made during set-up) and emit wire form again."""

    def __init__(self, kit):
        self.kit = kit
        self.tracer = None  # set for a traced run: each message gets a root "op" span
        self.batches: list = []
        self.encodings: list = []
        self.outputs: list = []

    def setup(self, seed: int) -> None:
        kit = self.kit
        self.batches = corpus.small_corpus(seed, batches=8, exchanges=50)
        self.encodings, self.outputs = [], []
        for batch in self.batches:
            wires = [corpus.to_wire(msg) for msg in batch]
            paired = pairing(batch)
            decoded = [kit.dnswire.decode_wire(w) for w in wires]
            self.encodings.append([
                _DnsEncodings(kit, m, decoded[paired[j]] if j in paired else None)
                for j, m in enumerate(decoded)
            ])
            self.outputs.append(None)
        self.run(0)  # warm-up

    def __len__(self) -> int:
        return len(self.batches)

    def run(self, i: int) -> tuple[int, int]:
        kit = self.kit
        dnscbor, dnspacked, dnswire = kit.dnscbor, kit.dnspacked, kit.dnswire
        errors = (kit.cbor.CborError, dnscbor.DnsCborError, dnspacked.DnsPackedError, dnswire.DnsWireError)
        tracer = self.tracer
        batch_op = tracer.root_op if tracer else ""
        out = []
        failed = 0
        for k, enc in enumerate(self.encodings[i]):
            if tracer:
                tracer.start_op("%s.%d" % (batch_op, k + 1))
                op_span = tracer.open("op")
            per_mode = {}
            try:
                for mode, data in enc.data.items():
                    ctx = enc.contexts[mode]
                    if mode.startswith("packed"):
                        item = dnspacked.unpack(dnspacked.PackedEnvelope.from_bytes(data))
                        msg = dnscbor.item_to_message(item, ctx)
                    else:
                        msg = dnscbor.decode_message(data, ctx)
                    per_mode[mode] = (msg, dnswire.encode_wire(msg))
            except errors:
                per_mode = None  # a failed op: counted, and left out of the checks
                failed += 1
            finally:
                if tracer:
                    tracer.close(op_span)
            out.append(per_mode)
        self.outputs[i] = out
        return len(out), failed

    def check(self) -> dict:
        decode_wire = self.kit.dnswire.decode_wire
        totals = dict.fromkeys(("classic",) + DNS_MODES, 0)
        for i, batch in enumerate(self.batches):
            for j, (want, per_mode, enc) in enumerate(zip(batch, self.outputs[i], self.encodings[i])):
                if per_mode is None:
                    continue
                at = "batch %d message %d" % (i, j)
                for mode, (msg, wire) in per_mode.items():
                    diff = checks.msg_matches(msg, want)
                    _require(diff is None, "%s: decoded from %s: %s" % (at, mode, diff))
                    diff = checks.msg_matches(decode_wire(wire), want)
                    _require(diff is None, "%s: re-emitted wire from %s: %s" % (at, mode, diff))
                    _require(len(wire) <= corpus.uncompressed_length(want), at + ": wire longer than uncompressed")
                    totals[mode] += len(enc.data[mode])
                totals["classic"] += len(per_mode["unpacked"][1])
        return _bytes_totals(totals["classic"], totals["unpacked"], sum(totals[m] for m in DNS_MODES), totals)


class JsonAnalyze:
    """``json analyze`` through ``cli.run``, one directory per batch."""

    def __init__(self, kit, workdir: Path):
        self.kit = kit
        self.workdir = workdir
        self.batches: list = []

    def setup(self, seed: int) -> None:
        self.batches = corpus.json_corpus(seed, batches=2, rounds=3)
        shutil.rmtree(self.workdir, ignore_errors=True)
        for i, docs in enumerate(self.batches):
            directory = self.workdir / ("b%02d" % i)
            directory.mkdir(parents=True)
            for j, text in enumerate(docs):
                (directory / ("doc%02d.json" % j)).write_text(text, encoding="utf-8")
        self.run(0)  # warm-up

    def __len__(self) -> int:
        return len(self.batches)

    def run(self, i: int) -> tuple[int, int]:
        directory = self.workdir / ("b%02d" % i)
        code = self.kit.cli.run(["json", "analyze", "--in", str(directory), "--out", str(directory) + ".csv"])
        n = len(self.batches[i])
        if code != 0:
            return n, n
        with open(str(directory) + ".csv", encoding="utf-8") as f:
            produced = sum(1 for _ in f) - 1
        return n, max(0, n - produced)

    def check(self) -> dict:
        cbor, jsonbridge = self.kit.cbor, self.kit.jsonbridge
        smallest = cbor.EncodeOptions(float_mode=cbor.FLOAT_SMALLEST)
        minified_total = cbor_total = 0
        for i, docs in enumerate(self.batches):
            where = "batch %d" % i
            text = (self.workdir / ("b%02d.csv" % i)).read_text(encoding="utf-8")
            rows = _csv_rows(text, JSON_COLUMNS, len(docs), where)
            for j, (doc, row) in enumerate(zip(docs, rows)):
                at = "%s doc %d" % (where, j)
                _require(row[0] == "doc%02d.json" % j, at + ": file order")
                value = json.loads(doc)
                minified, size = int(row[1]), int(row[2])
                compact = json.dumps(value, separators=(",", ":"), ensure_ascii=False)
                _require(minified == len(compact.encode("utf-8")), "%s: minified size %d" % (at, minified))
                data = cbor.encode(jsonbridge.json_to_cbor(jsonbridge.parse_json(doc)), smallest)
                _require(size == len(data), "%s: cbor_size %d != %d" % (at, size, len(data)))
                try:
                    _require(checks.strict_equal(checks.read_cbor(data), value), at + ": CBOR differs from the JSON")
                except checks.Malformed as exc:
                    raise CheckFailed("%s: CBOR output: %s" % (at, exc)) from exc
                _check_savings(minified, size, row[3], row[4], at)
                tier = 1 if minified < 100 else 2 if minified < 1000 else 3
                _require(row[5] == str(tier), "%s: tier %s for %d bytes" % (at, row[5], minified))
                nested = "nested" if checks.has_nested_container(value) else "flat"
                _require(row[8] == nested, "%s: structure %s" % (at, row[8]))
                minified_total += minified
                cbor_total += size
        return _bytes_totals(minified_total, cbor_total, cbor_total, {})


def make(name: str, kit, workdir: Path):
    if name == "dns-compare-small":
        return DnsCompare(kit, workdir, large=False)
    if name == "dns-compare-large":
        return DnsCompare(kit, workdir, large=True)
    if name == "dns-roundtrip":
        return DnsRoundTrip(kit)
    if name == "json-analyze":
        return JsonAnalyze(kit, workdir)
    raise KeyError(name)


WORKLOADS = ("dns-compare-small", "dns-compare-large", "dns-roundtrip", "json-analyze")
