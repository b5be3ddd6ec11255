"""``tools/pair.py`` times two source trees against each other: here
``src/`` against itself on one batch of the large corpus, and against a
copy whose ``dns compare`` CSV differs, which must fail."""

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
    assert [layer for layer in pair.LAYERS if "\n%s " % layer not in out] == []
    assert "dns compare CSVs identical on every batch" in out


def test_pairing_fails_when_the_csvs_differ(tmp_path, capsys):
    pair = _load_pair()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    analysis = copy / "cborkit" / "analysis.py"
    analysis.write_text(analysis.read_text().replace('"question_elided"', '"elided"'))
    assert pair.pair(copy, ROOT / "src", "large", seed=1, batches=1, pairs=1) == 1
    assert "CSVs differ on batch(es) [0]" in capsys.readouterr().out
