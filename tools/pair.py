"""Pair two cborkit source trees on a benchmark corpus, layer by layer.

    python3 tools/pair.py --parent HEAD~1 --corpus large --seed 1 --pairs 10
    python3 tools/pair.py --parent-src /path/to/old/src --corpus small
    python3 tools/pair.py --parent HEAD~1 --corpus json --batches 2
    python3 tools/pair.py --parent HEAD~1 --corpus roundtrip --seed 3

The change is the ``src/`` of this checkout.  The parent is either a source
tree (``--parent-src``, the directory that holds ``cborkit/``) or a git
revision (``--parent``, unpacked with ``git archive`` into a temporary
directory).  Both trees are imported into this one process under two
package names, and each layer is timed per batch of a ``perfbench/corpus.py``
corpus.  On the DNS corpora (``small``, ``large``) the layers are
``decode_wire`` on the batch's wire messages, ``encode_wire``, the classic
size, ``compare_modes`` on the decoded messages, and
``cli.run(["dns", "compare", ...])`` on the batch's hex file.  On the
``json`` corpus (``json_corpus(seed, batches, rounds=3)``, one directory per
batch) they are the four stages of ``json analyze`` on the batch's
documents: ``parse_json`` on each document's UTF-8 bytes, as ``json
analyze`` reads them, ``json_to_cbor``, ``minify`` with its UTF-8
length and ``classify``, and then ``cli.run(["json", "analyze", ...])`` on
the directory.  On the ``roundtrip`` corpus (``small_corpus(seed, batches,
exchanges=50)``) each side makes the five encodings of every message as the
``dns-roundtrip`` workload's set-up does, eliding the question of a response
whose query was seen; the layers are ``cbor.decode`` of the three dnscbor
encodings, ``item_to_message`` of all five decoded items,
``PackedEnvelope.from_bytes`` with ``unpack`` of the two packed ones,
``encode_wire`` of the decoded messages, and the whole round trip from
bytes to re-emitted wire.  Every pair times both sides on every batch and
layer, which side runs first alternates from pair to pair, and each timed
call starts after a full garbage collection.  For each layer the tool
prints the parent's and the change's median µs per message or document and
the median change/parent ratio with its quartiles, over all (pair, batch)
samples.  It exits with status 1 if the two sides' CSVs, or on
``roundtrip`` their re-emitted wire bytes, differ on any batch.
"""

from __future__ import annotations

import argparse
import gc
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
DNS_LAYERS = ("decode_wire", "encode_wire", "classic_size", "compare_modes", "dns_compare")
JSON_LAYERS = ("parse_json", "json_to_cbor", "minify", "classify", "json_analyze")
ROUNDTRIP_LAYERS = ("cbor_decode", "item_to_message", "unpack", "encode_wire", "roundtrip")
# Per corpus: its layers, what a sample is timed per, and what must match.
CORPORA = {
    "small": (DNS_LAYERS, "message", "dns compare CSVs"),
    "large": (DNS_LAYERS, "message", "dns compare CSVs"),
    "json": (JSON_LAYERS, "document", "json analyze CSVs"),
    "roundtrip": (ROUNDTRIP_LAYERS, "message", "re-emitted wire bytes"),
}


def _perfbench(name: str):
    """A module of ``perfbench/``, imported as the benchmark imports it."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


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
    names = ("analysis", "cbor", "cli", "dnscbor", "dnspacked", "dnswire", "jsonbridge", "taxonomy")
    return types.SimpleNamespace(**{n: importlib.import_module(package + "." + n) for n in names})


def _dns_layers(kit, wires: list[bytes], hexfile: Path, csvfile: Path) -> tuple[dict, object]:
    """Each layer's operation over one batch, as a function of no arguments,
    and a function giving the output the two sides must agree on."""
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
    }, csvfile.read_bytes


def _json_layers(kit, documents: list[bytes], directory: Path, csvfile: Path) -> tuple[dict, object]:
    """The stages of ``json analyze`` over one batch, as functions of no
    arguments, and a function giving the CSV."""
    parse, convert, minify = kit.jsonbridge.parse_json, kit.jsonbridge.json_to_cbor, kit.jsonbridge.minify
    classify, utf8 = kit.taxonomy.classify, kit.cbor.utf8
    values = [parse(data) for data in documents]
    items = [convert(value) for value in values]
    sizes = [len(utf8(minify(value))) for value in values]
    argv = ["json", "analyze", "--in", str(directory), "--out", str(csvfile)]

    def json_analyze():
        if kit.cli.run(argv) != 0:
            raise SystemExit("pair: json analyze failed on %s" % directory)

    return {
        "parse_json": lambda: [parse(data) for data in documents],
        "json_to_cbor": lambda: [convert(value) for value in values],
        "minify": lambda: [len(utf8(minify(value))) for value in values],
        "classify": lambda: [classify(item, size) for item, size in zip(items, sizes)],
        "json_analyze": json_analyze,
    }, csvfile.read_bytes


def _roundtrip_layers(kit, batch: list, wires: list[bytes]) -> tuple[dict, object]:
    """The receiver's layers over one batch, as functions of no arguments,
    and the whole round trip, whose re-emitted wire bytes the sides must
    agree on."""
    workloads = _perfbench("workloads")
    decoded = [kit.dnswire.decode_wire(wire) for wire in wires]
    paired = workloads.pairing(batch)
    encodings = [workloads._DnsEncodings(kit, msg, decoded[paired[j]] if j in paired else None)
                 for j, msg in enumerate(decoded)]
    plain, packed = [], []
    for enc in encodings:
        for mode, data in enc.data.items():
            (packed if mode.startswith("packed") else plain).append((data, enc.contexts[mode]))
    decode, to_message = kit.cbor.decode, kit.dnscbor.item_to_message
    decode_message, encode = kit.dnscbor.decode_message, kit.dnswire.encode_wire
    from_bytes, unpack = kit.dnspacked.PackedEnvelope.from_bytes, kit.dnspacked.unpack
    items = [(decode(data)[0], ctx) for data, ctx in plain]
    items += [(unpack(from_bytes(data)), ctx) for data, ctx in packed]
    messages = [to_message(item, ctx) for item, ctx in items]

    def roundtrip():
        out = [encode(decode_message(data, ctx)) for data, ctx in plain]
        return out + [encode(to_message(unpack(from_bytes(data)), ctx)) for data, ctx in packed]

    return {
        "cbor_decode": lambda: [decode(data) for data, _ in plain],
        "item_to_message": lambda: [to_message(item, ctx) for item, ctx in items],
        "unpack": lambda: [unpack(from_bytes(data)) for data, _ in packed],
        "encode_wire": lambda: [encode(msg) for msg in messages],
        "roundtrip": roundtrip,
    }, roundtrip


def _dns_ops(corpus_module, corpus: str, seed: int, batches: int, sides: dict, work: Path) -> list:
    if corpus == "large":
        corpus_batches = corpus_module.large_corpus(seed, rounds=batches)
    else:
        exchanges = 50 if corpus == "roundtrip" else 200
        corpus_batches = corpus_module.small_corpus(seed, batches=batches, exchanges=exchanges)
    ops = []
    for b, batch in enumerate(corpus_batches):
        wires = [corpus_module.to_wire(msg) for msg in batch]
        if corpus == "roundtrip":
            ops.append((len(wires), {
                side: _roundtrip_layers(kit, batch, wires) for side, kit in sides.items()
            }))
            continue
        hexfile = work / ("b%02d.hex" % b)
        hexfile.write_text("".join(wire.hex() + "\n" for wire in wires))
        ops.append((len(wires), {
            side: _dns_layers(kit, wires, hexfile, work / ("b%02d-%s.csv" % (b, side)))
            for side, kit in sides.items()
        }))
    return ops


def _json_ops(corpus_module, seed: int, batches: int, sides: dict, work: Path) -> list:
    ops = []
    for b, texts in enumerate(corpus_module.json_corpus(seed, batches=batches, rounds=3)):
        directory = work / ("b%02d" % b)
        directory.mkdir()
        documents = [text.encode("utf-8") for text in texts]
        for j, data in enumerate(documents):
            (directory / ("doc%02d.json" % j)).write_bytes(data)
        ops.append((len(documents), {
            side: _json_layers(kit, documents, directory, work / ("b%02d-%s.csv" % (b, side)))
            for side, kit in sides.items()
        }))
    return ops


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def pair(parent_src: Path, change_src: Path, corpus: str, seed: int, batches: int, pairs: int) -> int:
    corpus_module = _perfbench("corpus")
    sides = {"parent": load_tree(parent_src, "pair_parent"), "change": load_tree(change_src, "pair_change")}
    layer_names, unit, output = CORPORA[corpus]
    times = {side: {layer: [] for layer in layer_names} for side in sides}
    ratios = {layer: [] for layer in layer_names}
    mismatched = []
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        work = Path(tmp)
        if corpus == "json":
            ops = _json_ops(corpus_module, seed, batches, sides, work)
        else:
            ops = _dns_ops(corpus_module, corpus, seed, batches, sides, work)
        for p in range(pairs):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for b, (count, per_side) in enumerate(ops):
                for layer in layer_names:
                    took = {}
                    for side in order:
                        # Else the cyclic collector's passes can fall on one
                        # side each time: src paired with itself read 1.8-2.2
                        # on cbor_decode over one roundtrip batch.
                        gc.collect()
                        start = time.perf_counter()
                        per_side[side][0][layer]()
                        took[side] = time.perf_counter() - start
                        times[side][layer].append(took[side] / count * 1e6)
                    ratios[layer].append(took["change"] / took["parent"])
                if p == 0 and per_side["parent"][1]() != per_side["change"][1]():
                    mismatched.append(b)
    print("%s corpus, seed %d, %d batch(es), %d pair(s); per %s in µs, ratio change/parent"
          % (corpus, seed, len(ops), pairs, unit))
    print("%-14s %10s %10s %8s %17s" % ("layer", "parent", "change", "ratio", "quartiles"))
    for layer in layer_names:
        low, mid, high = _quartiles(ratios[layer])
        print("%-14s %10.1f %10.1f %8.3f   [%.3f, %.3f]" % (
            layer, statistics.median(times["parent"][layer]), statistics.median(times["change"][layer]),
            mid, low, high))
    if mismatched:
        print("pair: %s differ on batch(es) %s" % (output, mismatched))
        return 1
    print("%s identical on every batch" % output)
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
    parser.add_argument("--corpus", choices=tuple(CORPORA), default="large")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=4, help="corpus batches (large: rounds; json: directories)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pair-parent-") as tmp:
        parent_src = args.parent_src or _archive(args.parent, Path(tmp))
        return pair(parent_src, ROOT / "src", args.corpus, args.seed, args.batches, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
