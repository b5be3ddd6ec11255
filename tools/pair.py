"""Pair two cborkit source trees on a benchmark corpus, layer by layer.

    python3 tools/pair.py --parent HEAD~1 --corpus large --seed 1 --pairs 10
    python3 tools/pair.py --parent-src /path/to/old/src --corpus small

The change is the ``src/`` of this checkout.  The parent is either a source
tree (``--parent-src``, the directory that holds ``cborkit/``) or a git
revision (``--parent``, unpacked with ``git archive`` into a temporary
directory).  Both trees are imported into this one process under two
package names, and each layer is timed per batch of a ``perfbench/corpus.py``
corpus: ``decode_wire`` on the batch's wire messages, ``encode_wire``, the
classic size, ``compare_modes`` on the decoded messages, and
``cli.run(["dns", "compare", ...])`` on the batch's hex file.  Every pair
times both sides on every batch and layer, and which side runs first
alternates from pair to pair.  For each layer the tool prints the parent's
and the change's median µs per message and the median change/parent ratio
with its quartiles, over all (pair, batch) samples.  It exits with status 1
if the two sides' ``dns compare`` CSVs differ on any batch.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("decode_wire", "encode_wire", "classic_size", "compare_modes", "dns_compare")


def _load_corpus_module():
    spec = importlib.util.spec_from_file_location("pair_corpus", ROOT / "perfbench" / "corpus.py")
    module = sys.modules["pair_corpus"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tree(src: Path, package: str):
    """Import the ``cborkit`` package under ``src`` as ``package``."""
    init = src / "cborkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit("pair: no cborkit sources under %s" % src)
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]  # a tree loaded earlier under the same name
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)])
    sys.modules[package] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[package])
    names = ("analysis", "cli", "dnswire")
    return types.SimpleNamespace(**{n: importlib.import_module(package + "." + n) for n in names})


def _layers(kit, wires: list[bytes], hexfile: Path, csvfile: Path) -> dict:
    """Each layer's operation over one batch, as a function of no arguments."""
    decode, encode = kit.dnswire.decode_wire, kit.dnswire.encode_wire
    messages = [decode(wire) for wire in wires]
    # A tree without the length-only pass takes the classic size from the bytes.
    size = getattr(kit.dnswire, "wire_size", lambda msg: len(encode(msg)))
    compare = kit.analysis.compare_modes
    argv = ["dns", "compare", "--in", str(hexfile), "--out", str(csvfile)]

    def dns_compare():
        if kit.cli.run(argv) != 0:
            raise SystemExit("pair: dns compare failed on %s" % hexfile)

    return {
        "decode_wire": lambda: [decode(wire) for wire in wires],
        "encode_wire": lambda: [encode(msg) for msg in messages],
        "classic_size": lambda: [size(msg) for msg in messages],
        "compare_modes": lambda: [compare(msg) for msg in messages],
        "dns_compare": dns_compare,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def pair(parent_src: Path, change_src: Path, corpus: str, seed: int, batches: int, pairs: int) -> int:
    corpus_module = _load_corpus_module()
    if corpus == "large":
        corpus_batches = corpus_module.large_corpus(seed, rounds=batches)
    else:
        corpus_batches = corpus_module.small_corpus(seed, batches=batches, exchanges=200)
    sides = {"parent": load_tree(parent_src, "pair_parent"), "change": load_tree(change_src, "pair_change")}
    times = {side: {layer: [] for layer in LAYERS} for side in sides}
    ratios = {layer: [] for layer in LAYERS}
    mismatched = []
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        work = Path(tmp)
        ops = []
        for b, batch in enumerate(corpus_batches):
            wires = [corpus_module.to_wire(msg) for msg in batch]
            hexfile = work / ("b%02d.hex" % b)
            hexfile.write_text("".join(wire.hex() + "\n" for wire in wires))
            ops.append((len(wires), {
                side: _layers(kit, wires, hexfile, work / ("b%02d-%s.csv" % (b, side)))
                for side, kit in sides.items()
            }))
        for p in range(pairs):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for b, (count, layers) in enumerate(ops):
                for layer in LAYERS:
                    took = {}
                    for side in order:
                        start = time.perf_counter()
                        layers[side][layer]()
                        took[side] = time.perf_counter() - start
                        times[side][layer].append(took[side] / count * 1e6)
                    ratios[layer].append(took["change"] / took["parent"])
                if p == 0:
                    csvs = [(work / ("b%02d-%s.csv" % (b, side))).read_bytes() for side in sides]
                    if csvs[0] != csvs[1]:
                        mismatched.append(b)
    print("%s corpus, seed %d, %d batch(es), %d pair(s); per message in µs, ratio change/parent"
          % (corpus, seed, len(ops), pairs))
    print("%-14s %10s %10s %8s %17s" % ("layer", "parent", "change", "ratio", "quartiles"))
    for layer in LAYERS:
        low, mid, high = _quartiles(ratios[layer])
        print("%-14s %10.1f %10.1f %8.3f   [%.3f, %.3f]" % (
            layer, statistics.median(times["parent"][layer]), statistics.median(times["change"][layer]),
            mid, low, high))
    if mismatched:
        print("pair: dns compare CSVs differ on batch(es) %s" % mismatched)
        return 1
    print("dns compare CSVs identical on every batch")
    return 0


def _archive(rev: str, dest: Path) -> Path:
    """Unpack ``src/`` of git revision ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parent = parser.add_mutually_exclusive_group(required=True)
    parent.add_argument("--parent-src", type=Path, help="the parent's source tree (holds cborkit/)")
    parent.add_argument("--parent", help="a git revision of this repository")
    parser.add_argument("--corpus", choices=("small", "large"), default="large")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=4, help="corpus batches (large: rounds)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pair-parent-") as tmp:
        parent_src = args.parent_src or _archive(args.parent, Path(tmp))
        return pair(parent_src, ROOT / "src", args.corpus, args.seed, args.batches, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
