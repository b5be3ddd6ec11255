"""``tools/pair.py`` times two source trees against each other: here
``src/`` against itself on one batch of the large, JSON and roundtrip
corpora, and against copies whose ``dns compare`` or ``json analyze`` CSV,
or re-emitted wire, differs, which must fail."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_pair():
    spec = importlib.util.spec_from_file_location("pair_tool", ROOT / "tools" / "pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairing_src_with_itself(capsys):
    pair = _load_pair()
    assert pair.main(["--parent-src", str(ROOT / "src"), "--batches", "1", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert [layer for layer in pair.DNS_LAYERS if "\n%s " % layer not in out] == []
    assert "dns compare CSVs identical on every batch" in out


def test_pairing_fails_when_the_csvs_differ(tmp_path, capsys):
    pair = _load_pair()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    analysis = copy / "cborkit" / "analysis.py"
    analysis.write_text(analysis.read_text().replace('"question_elided"', '"elided"'))
    assert pair.pair(copy, ROOT / "src", "large", seed=1, batches=1, pairs=1) == 1
    assert "CSVs differ on batch(es) [0]" in capsys.readouterr().out


def test_pairing_src_with_itself_on_json(capsys):
    pair = _load_pair()
    argv = ["--parent-src", str(ROOT / "src"), "--corpus", "json", "--batches", "1", "--pairs", "2"]
    assert pair.main(argv) == 0
    out = capsys.readouterr().out
    assert [layer for layer in pair.JSON_LAYERS if "\n%s " % layer not in out] == []
    assert "json analyze CSVs identical on every batch" in out


def test_pairing_fails_when_the_json_csvs_differ(tmp_path, capsys):
    pair = _load_pair()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "cborkit" / "cli.py"
    cli.write_text(cli.read_text().replace('"minified_size"', '"json_size"'))
    assert pair.pair(copy, ROOT / "src", "json", seed=1, batches=1, pairs=1) == 1
    assert "json analyze CSVs differ on batch(es) [0]" in capsys.readouterr().out


def test_pairing_src_with_itself_on_roundtrip(capsys):
    pair = _load_pair()
    argv = ["--parent-src", str(ROOT / "src"), "--corpus", "roundtrip", "--batches", "1", "--pairs", "2"]
    assert pair.main(argv) == 0
    out = capsys.readouterr().out
    assert [layer for layer in pair.ROUNDTRIP_LAYERS if "\n%s " % layer not in out] == []
    assert "re-emitted wire bytes identical on every batch" in out


def test_pairing_fails_when_the_reemitted_wire_differs(tmp_path, capsys):
    pair = _load_pair()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    dnswire = copy / "cborkit" / "dnswire.py"
    text = dnswire.read_text()
    end = "    return bytes(out)\n\n\ndef wire_size("  # the end of encode_wire
    assert text.count(end) == 1
    dnswire.write_text(text.replace(end, end.replace("bytes(out)", "bytes(out) + b'\\0'")))
    assert pair.pair(copy, ROOT / "src", "roundtrip", seed=1, batches=1, pairs=1) == 1
    assert "re-emitted wire bytes differ on batch(es) [0]" in capsys.readouterr().out
