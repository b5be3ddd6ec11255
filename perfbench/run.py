"""cborkit benchmark: seeded corpora through the program's public entry points.

    python3 perfbench/run.py --workload dns-compare-small --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Set-up (corpus generation, writing, pre-encoding, warm-up) runs
``SETUP_REPEATS`` times and reports its median.  The timed phase then runs
whole passes over the corpus, closed loop in this one process, until
``--seconds`` have passed; ``ops_per_s`` is the median over all batches of
the batch's ops per second.  Outputs are checked afterwards, outside the
timed phase.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from spans recorded around the calls between modules (the spans
themselves go to ``perfbench/work/trace-<workload>-<seed>.jsonl.gz``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MODULES = ("analysis", "cbor", "cli", "dnscbor", "dnspacked", "dnswire", "jsonbridge", "taxonomy")


def load_program():
    """Import cborkit from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cborkit" / "__init__.py").is_file():
        raise SystemExit("perfbench: no cborkit sources under %s" % src)
    sys.path.insert(0, str(src))
    kit = types.SimpleNamespace()
    for name in MODULES:
        setattr(kit, name, importlib.import_module("cborkit." + name))
    if Path(kit.cli.__file__).resolve().parent != src / "cborkit":
        raise SystemExit("perfbench: imported cborkit from %s" % kit.cli.__file__)
    return kit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kit = load_program()
    workdir = HERE / "work" / ("%s-%d" % (args.workload, args.seed))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # each set-up starts from a heap without the last one
        gc.collect()
        start = time.perf_counter()
        workload = workloads.make(args.workload, kit, workdir)
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)

    tracer = spans.Tracer() if args.trace else None
    saved = spans.install(tracer, kit) if tracer else []
    workload.tracer = tracer
    attempted = failed = 0
    passes = 0
    batch_rates = []
    try:
        gc.collect()
        start = time.perf_counter()
        elapsed = 0.0
        # Whole passes over the corpus, so every run does the same mix of ops.
        while elapsed < args.seconds:
            for i in range(len(workload)):
                if tracer:
                    tracer.start_op("p%d.b%d" % (passes, i))
                batch_start = time.perf_counter()
                done, bad = workload.run(i)
                batch_rates.append(done / (time.perf_counter() - batch_start))
                attempted += done
                failed += bad
            passes += 1
            elapsed = time.perf_counter() - start
    finally:
        spans.uninstall(saved)
    # The peak of set-up and the timed phase, before the checks add their own.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    try:
        totals = workload.check()
        correct = True
    except workloads.CheckFailed as exc:
        print("perfbench: check failed: %s" % exc, file=sys.stderr)
        totals, correct = {}, False

    ops_per_s = statistics.median(batch_rates)
    print("perfbench: %s seed %d%s: %d ops in %d passes, %.3f s (%.1f op/s); op/s per batch %s; set-up %s s"
          % (args.workload, args.seed, " (traced)" if tracer else "", attempted, passes, elapsed,
             attempted / elapsed, " ".join("%.1f" % r for r in batch_rates),
             " ".join("%.3f" % t for t in setup_times)),
          file=sys.stderr)
    if tracer:
        metrics = tracer.layer_metrics(attempted)
        for name in workloads.LAYER_BYTES.values():
            metrics[name] = {"value": totals.get(name, 0), "unit": "B"}
        (HERE / "work").mkdir(exist_ok=True)
        tracer.write(HERE / "work" / ("trace-%s-%d.jsonl.gz" % (args.workload, args.seed)))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
        for name in ("bytes_classic", "bytes_cbor", "bytes_encoded"):
            metrics[name] = {"value": totals.get(name, 0), "unit": "B"}
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
