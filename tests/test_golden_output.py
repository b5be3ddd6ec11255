"""Same output: the ``dns compare`` and ``dns suffix-stats`` CSVs of a seeded
corpus, the wire form its messages decode back to from every mode, the
``dns compare`` CSV of seeded large responses, and the ``json analyze`` CSV
of a seeded JSON directory under each float mode are pinned by their SHA-256.

A change meant to leave every output byte as it is must pass this test
unchanged.  A change that means to alter bytes updates the hashes and says
so.
"""

import base64
import hashlib
import json
import random

import pytest

from conftest import random_message, random_name, random_record
from cborkit.analysis import MODES, decode_in_mode, encode_in_mode
from cborkit.cli import FLOAT_MODES, run
from cborkit.dnscbor import CodecContext, ROLE_QUERY, ROLE_RESPONSE
from cborkit.dnswire import CLASS_IN, TYPE_A, DnsMessage, Name, Question, decode_wire, encode_wire

GOLDEN_SHA256 = {
    "compare": "abf9fc15df737cc0c20f40148602281b50836be70f20af21b92ab58b3bf9ba43",
    "compare-large": "8be94278b33d70986a2b27e4a0f88c643485cc52fc80dfe61559f7bdd4bf3395",
    "suffix-stats": "54bbfed4b95663fd1bf4ecc5580803415188f8e6e72e3db53dec393d4e5ec6fd",
    "roundtrip": "bc21b526f7b41368bcc7b2bf44e298427dce3cf6a94833c083b2cddf1ab649c1",
    "json-analyze-preserve": "645d352fe21b4a370553cad310796ba4ac3d40e72bddf778df7cf58091e4c5c9",
    "json-analyze-force_double": "645d352fe21b4a370553cad310796ba4ac3d40e72bddf778df7cf58091e4c5c9",
    "json-analyze-smallest": "71e974feb4482f48e2a247bd64969a4bf8aa95f6be0c13b74ae43b6802ba08ce",
}


def _corpus_hex(seed: int = 20, exchanges: int = 200) -> str:
    """400 messages: each query is followed by a response to its question
    under the same id, so pairing and question elision happen; every third
    response spells its question in upper case."""
    rng = random.Random(seed)
    lines = []
    for i in range(exchanges):
        query = random_message(rng, response=False)
        response = random_message(rng, response=True)
        query.id = response.id = i
        asked = query.questions[0]
        name = asked.name
        if i % 3 == 0:
            name = Name(tuple(label.upper() for label in name.labels))
        response.questions = [Question(name, asked.rtype, asked.rclass)]
        lines += [encode_wire(query).hex(), encode_wire(response).hex()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["compare", "suffix-stats"])
def test_csv_bytes_are_pinned(tmp_path, command):
    corpus = tmp_path / "corpus.hex"
    corpus.write_text(_corpus_hex())
    out = tmp_path / "out.csv"
    assert run(["dns", command, "--in", str(corpus), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[command]


def _large_corpus_hex(seed: int = 22, responses: int = 24) -> str:
    """Responses of 20 to 200 records whose names come from one pool shared
    by the whole corpus, so names and suffixes repeat within a message and
    its packing table runs past index 16, 24 and 40."""
    rng = random.Random(seed)
    pool: list[Name] = []
    lines = []
    for i in range(responses):
        question = Question(random_name(rng, pool), TYPE_A, CLASS_IN)
        total = rng.randint(20, 200)
        authority, additional = rng.randrange(0, 5), rng.randrange(0, 10)
        records = [random_record(rng, pool) for _ in range(total)]
        cut = total - authority - additional
        sections = records[:cut], records[cut : cut + authority], records[cut + authority :]
        msg = DnsMessage(i, 0x8180, [question], *sections)
        lines.append(encode_wire(msg).hex())
    return "\n".join(lines) + "\n"


def test_large_response_csv_is_pinned(tmp_path):
    corpus = tmp_path / "corpus.hex"
    corpus.write_text(_large_corpus_hex())
    out = tmp_path / "out.csv"
    assert run(["dns", "compare", "--in", str(corpus), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256["compare-large"]


def test_receiver_side_bytes_are_pinned():
    """Each message of the corpus, encoded in every mode and decoded again,
    back in wire form; a response is coded against its query's question."""
    digest = hashlib.sha256()
    messages = [decode_wire(bytes.fromhex(line)) for line in _corpus_hex().split()]
    for query, response in zip(messages[::2], messages[1::2]):
        contexts = [
            (query, CodecContext(ROLE_QUERY)),
            (response, CodecContext(ROLE_RESPONSE, query.questions[0])),
        ]
        for msg, ctx in contexts:
            for mode in MODES:
                data = encode_in_mode(msg, ctx, mode).data
                digest.update(encode_wire(decode_in_mode(data, ctx, mode)))
    assert digest.hexdigest() == GOLDEN_SHA256["roundtrip"]


# The corner cases of the JSON bridge: integers just inside and beyond the
# 64-bit range, a double's overflow, negative zero, floats exact in 16, 32
# and 64 bits, every kind of string escape, and duplicate and non-ASCII keys.
_JSON_NUMBERS = (
    "0", "-0", "-0.0", "7", "-25", "1000000", "18446744073709551615",
    "18446744073709551616", "-18446744073709551616", "-18446744073709551617",
    "1180591620717411303424", "1e400", "-1e400", "1.5", "-2.0", "65504.0",
    "0.00006103515625", "5.960464477539063e-08", "100000.0", "1E2",
    "3.4028234663852886e38", "1.100000023841858", "0.1", "1.7976931348623157e308",
    "2.5e-310", "1.0e+2",
)
_JSON_STRINGS = (
    "", "x", "tab\there\n", "\x00\x01\x1f", 'say "hi"', "back\\slash", "a/b",
    "\u2028\u2029", "caf\u00e9", "\u6771\u4eac", "\U0001f600", "\x7f", "a" * 30, "lorem " * 50,
)
_JSON_KEYS = ("id", "name", "type", "\u043a\u043b\u044e\u0447", "cl\u00e9", "a/b", "", 'k"q')


def _json_string(rng: random.Random, s: str) -> str:
    style = rng.randrange(3)
    text = json.dumps(s, ensure_ascii=style == 1)
    return text.replace("/", "\\/") if style == 2 else text


def _json_text(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth > 0 and roll < 0.5:
        return _json_container(rng, depth)
    if roll < 0.65:
        return rng.choice(("true", "false", "null"))
    if roll < 0.8:
        return rng.choice(_JSON_NUMBERS)
    return _json_string(rng, rng.choice(_JSON_STRINGS))


def _json_container(rng: random.Random, depth: int) -> str:
    sep = rng.choice((",", ", ", ",\n  "))
    count = rng.randrange(8)
    if rng.random() < 0.4:
        return "[" + sep.join(_json_text(rng, depth - 1) for _ in range(count)) + "]"
    pairs = [
        _json_string(rng, rng.choice(_JSON_KEYS)) + rng.choice((":", ": "))
        + _json_text(rng, depth - 1)
        for _ in range(count)
    ]
    return "{" + sep.join(pairs) + "}"


def _json_file_map(rng: random.Random, files: int) -> str:
    """A contents listing: one map of files with base64 bodies, some wrapped
    at 76 columns."""
    entries = {}
    for i in range(files):
        body = rng.randbytes(rng.randint(10, 300))
        encode = base64.encodebytes if rng.random() < 0.3 else base64.b64encode
        entries["src/f%d.py" % i] = {
            "type": "file", "encoding": "base64", "size": len(body),
            "sha": rng.randbytes(20).hex(), "content": encode(body).decode(),
        }
    return json.dumps(entries, indent=rng.choice((None, 2)))


def _json_corpus(seed: int = 21, documents: int = 30) -> list[str]:
    """Seeded documents of random shape, then one of each corner case: the
    number and string pools whole, file maps, and arrays and objects nested
    127 to 129 levels (the last is too deep and is skipped)."""
    rng = random.Random(seed)
    docs = [_json_container(rng, rng.randrange(1, 6)) for _ in range(documents)]
    docs.append("[" + ",".join(_JSON_NUMBERS) + "]")
    docs.append("[" + ",".join(_json_string(rng, s) for s in _JSON_STRINGS) + "]")
    keys = [_json_string(rng, k) for k in _JSON_KEYS * 2]
    docs.append("{" + ",".join("%s:%d" % (k, i) for i, k in enumerate(keys)) + "}")
    docs += [_json_file_map(rng, files) for files in (1, 4, 12)]
    for levels in (127, 128, 129):
        docs.append("[" * levels + "1.5" + "]" * levels)
        docs.append('{"k":' * levels + '"\\u00e9"' + "}" * levels)
    return docs


@pytest.mark.parametrize("float_mode", FLOAT_MODES)
def test_json_analyze_csv_is_pinned(tmp_path, float_mode):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, text in enumerate(_json_corpus()):
        (corpus / ("doc%02d.json" % i)).write_bytes(text.encode("utf-8"))
    out = tmp_path / "out.csv"
    argv = ["json", "analyze", "--in", str(corpus), "--out", str(out), "--float-mode", float_mode]
    assert run(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256["json-analyze-" + float_mode]
