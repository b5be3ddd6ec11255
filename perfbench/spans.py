"""In-memory span tracing around the calls between cborkit's modules.

Every call from one module into another goes through a module attribute
(``analysis.compare_modes``, ``cbor.encode``, ...), so ``install`` swaps
those attributes for wrappers that open a span, and ``uninstall`` puts the
originals back.  The program's source is not touched.

A span records its name, start and end (``perf_counter_ns``), its parent
span and the op it belongs to.  Helpers that run thousands of times per
message (``cbor.encode`` and ``cbor.item_size`` inside the packer or the
taxonomy) are not kept one span per call: their count and time are summed
on the enclosing span under ``agg``.  A recursive call of a wrapped
function (``json_to_cbor`` calls itself) stays inside the outer span.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter_ns

# Spans reported as per-layer metrics, by module.
SPAN_NAMES = (
    "cli.run",
    "analysis.ingest_hex",
    "analysis.pair_queries_responses",
    "analysis.compare_modes",
    "analysis.write_csv",
    "dnswire.decode_wire",
    "dnswire.encode_wire",
    "dnscbor.encode_message.unpacked",
    "dnscbor.encode_message.compref10",
    "dnscbor.encode_message.compref11",
    "dnscbor.decode_message",
    "dnscbor.item_to_message",
    "dnspacked.pack.lite",
    "dnspacked.pack.full",
    "dnspacked.PackedEnvelope.from_bytes",
    "dnspacked.unpack",
    "cbor.encode",
    "cbor.item_size",
    "cbor.decode",
    "jsonbridge.parse_json",
    "jsonbridge.minify",
    "jsonbridge.json_to_cbor",
    "taxonomy.classify",
)

_AGGREGATING_PARENTS = frozenset({"dnspacked.pack.lite", "dnspacked.pack.full", "taxonomy.classify"})
# Under cli.run, these calls start the work on one message or document ...
_OP_STARTS = frozenset({"analysis.compare_modes", "jsonbridge.parse_json"})
# ... and these work on the whole batch.
_BATCH_SPANS = frozenset({"analysis.ingest_hex", "analysis.pair_queries_responses", "analysis.write_csv"})


class _Open:
    __slots__ = ("id", "name", "start", "parent", "op", "agg")

    def __init__(self, span_id, name, start, parent, op):
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.op = op
        self.agg = None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, agg)
        self.stack: list[_Open] = []
        self.root_op = ""
        self.op = ""
        self.ops_in_root = 0

    def start_op(self, op_id: str) -> None:
        """Name the op that the next top-level span belongs to."""
        self.root_op = self.op = op_id
        self.ops_in_root = 0

    def open(self, name: str) -> _Open:
        stack = self.stack
        if not stack:
            op, parent = self.root_op, None
        else:
            top = stack[-1]
            parent = top.id
            op = top.op
            if len(stack) == 1 and top.name == "cli.run":
                if name in _OP_STARTS:
                    self.ops_in_root += 1
                    self.op = "%s.%d" % (self.root_op, self.ops_in_root)
                op = self.root_op if name in _BATCH_SPANS else self.op
        span = _Open(len(self.spans) + len(stack), name, 0, parent, op)
        stack.append(span)
        span.start = perf_counter_ns()
        return span

    def close(self, span: _Open) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        self.spans.append((span.id, span.name, span.start, end, span.parent, span.op, span.agg))

    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed (a 20 s run records
        about a million spans)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span_id, name, start, end, parent, op, agg in self.spans:
                record = {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                if agg:
                    record["agg"] = agg
                out.write(json.dumps(record, separators=(",", ":")) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """``<span>.calls`` (calls per op, over the ``ops`` the run
        attempted) and ``<span>.self_us`` (self time per call) for every
        name in ``SPAN_NAMES``; self time is a span's duration minus the
        time covered by its child spans and aggregated helper calls.  The
        run is time-boxed, so a per-op count stays put when the program
        gets faster and runs more passes."""
        covered: dict[int, int] = {}
        for span_id, name, start, end, parent, op, agg in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)  # root "op" spans are not a layer
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for span_id, name, start, end, parent, op, agg in self.spans:
            own = end - start - covered.get(span_id, 0)
            for helper, (count, total) in (agg or {}).items():
                calls[helper] += count
                self_ns[helper] += total
                own -= total
            if name in calls:
                calls[name] += 1
                self_ns[name] += own
        metrics = {}
        for name in SPAN_NAMES:
            metrics[name + ".calls"] = {"value": calls[name] / ops, "unit": "calls/op"}
            per_call = self_ns[name] / calls[name] / 1000 if calls[name] else 0.0
            metrics[name + ".self_us"] = {"value": per_call, "unit": "us"}
        return metrics


def _wrap(tracer: Tracer, fn, name_of, aggregate: bool = False):
    def traced(*args, **kwargs):
        name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
        stack = tracer.stack
        if stack:
            top = stack[-1]
            if top.name == name:
                return fn(*args, **kwargs)
            if aggregate and top.name in _AGGREGATING_PARENTS:
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    if top.agg is None:
                        top.agg = {}
                    entry = top.agg.setdefault(name, [0, 0])
                    entry[0] += 1
                    entry[1] += elapsed
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return traced


def _encode_message_name(args, kwargs) -> str:
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    if ctx.mode is None:
        return "dnscbor.encode_message.unpacked"
    # A 1+0 reference tag fits the initial byte; a 1+1 tag needs one more.
    return "dnscbor.encode_message.compref10" if ctx.mode.tag < 24 else "dnscbor.encode_message.compref11"


def _pack_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "full")
    return "dnspacked.pack.%s" % mode


def install(tracer: Tracer, kit) -> list:
    """Wrap the module attributes; returns what ``uninstall`` restores."""
    cli, analysis, dnswire = kit.cli, kit.analysis, kit.dnswire
    dnscbor, dnspacked, cbor = kit.dnscbor, kit.dnspacked, kit.cbor
    jsonbridge, taxonomy = kit.jsonbridge, kit.taxonomy
    targets = [
        (cli, "run", "cli.run", False),
        (analysis, "ingest_hex", "analysis.ingest_hex", False),
        (analysis, "pair_queries_responses", "analysis.pair_queries_responses", False),
        (analysis, "compare_modes", "analysis.compare_modes", False),
        (analysis, "write_csv", "analysis.write_csv", False),
        (dnscbor, "encode_message", _encode_message_name, False),
        (dnscbor, "decode_message", "dnscbor.decode_message", False),
        (dnscbor, "item_to_message", "dnscbor.item_to_message", False),
        (dnspacked, "pack", _pack_name, False),
        (dnspacked, "unpack", "dnspacked.unpack", False),
        (cbor, "encode", "cbor.encode", True),
        (cbor, "item_size", "cbor.item_size", True),
        (cbor, "decode", "cbor.decode", False),
        (jsonbridge, "parse_json", "jsonbridge.parse_json", False),
        (jsonbridge, "minify", "jsonbridge.minify", False),
        (jsonbridge, "json_to_cbor", "jsonbridge.json_to_cbor", False),
        (taxonomy, "classify", "taxonomy.classify", False),
    ]
    # The wire codec is imported by name into its callers' namespaces.
    for module in (dnswire, analysis, cli):
        targets.append((module, "decode_wire", "dnswire.decode_wire", False))
        targets.append((module, "encode_wire", "dnswire.encode_wire", False))
    saved = []
    for owner, attr, name_of, aggregate in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name_of, aggregate))
    envelope = dnspacked.PackedEnvelope
    original = envelope.__dict__["from_bytes"]
    saved.append((envelope, "from_bytes", original))
    envelope.from_bytes = classmethod(
        _wrap(tracer, original.__func__, "dnspacked.PackedEnvelope.from_bytes")
    )
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
