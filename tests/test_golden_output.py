"""Same output: the ``dns compare`` and ``dns suffix-stats`` CSVs of a seeded
corpus, and the wire form its messages decode back to from every mode, are
pinned by their SHA-256.

A change meant to leave every output byte as it is must pass this test
unchanged.  A change that means to alter bytes updates the hashes and says
so.
"""

import hashlib
import random

import pytest

from conftest import random_message
from cborkit.analysis import MODES, decode_in_mode, encode_in_mode
from cborkit.cli import run
from cborkit.dnscbor import CodecContext, ROLE_QUERY, ROLE_RESPONSE
from cborkit.dnswire import Name, Question, decode_wire, encode_wire

GOLDEN_SHA256 = {
    "compare": "abf9fc15df737cc0c20f40148602281b50836be70f20af21b92ab58b3bf9ba43",
    "suffix-stats": "54bbfed4b95663fd1bf4ecc5580803415188f8e6e72e3db53dec393d4e5ec6fd",
    "roundtrip": "bc21b526f7b41368bcc7b2bf44e298427dce3cf6a94833c083b2cddf1ab649c1",
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
