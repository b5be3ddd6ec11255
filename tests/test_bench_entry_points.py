"""The entry points the benchmark's traced run wraps still exist and run.

``perfbench/spans.py`` swaps module attributes of cborkit for tracing
wrappers.  This installs its tracer over the package, runs one small
``dns compare``, one ``json analyze`` and a packed round trip in each
mode through the wrapped attributes, and restores them, so a change that
renames or reshapes one of those entry points fails here rather than
only in ``perfbench/run.py --trace 1``.  ``dns compare`` sizes the packed
and component modes without ``pack`` or a component encoding, so the
round trip is what reaches both ``pack`` spans and both component
``encode_message`` spans.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import random
import types
from pathlib import Path

from conftest import random_message
from cborkit import analysis, cbor, cli, dnscbor, dnspacked, dnswire, jsonbridge, taxonomy

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_run_through_every_wrapped_entry_point(tmp_path):
    spans = _load_spans()
    kit = types.SimpleNamespace(
        analysis=analysis, cbor=cbor, cli=cli, dnscbor=dnscbor, dnspacked=dnspacked,
        dnswire=dnswire, jsonbridge=jsonbridge, taxonomy=taxonomy,
    )
    rng = random.Random(5)
    messages = [random_message(rng) for _ in range(6)]
    hexfile = tmp_path / "msgs.hex"
    hexfile.write_text("".join(dnswire.encode_wire(m).hex() + "\n" for m in messages))
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.json").write_text('{"name":"a.example.org","tags":[1,2.5,true]}')
    (docs / "b.json").write_text('[{"k":"v"},{"k":"v"}]')
    originals = {name: getattr(cli, name) for name in ("run", "decode_wire", "encode_wire")}
    from_bytes = dnspacked.PackedEnvelope.__dict__["from_bytes"]

    tracer = spans.Tracer()
    saved = spans.install(tracer, kit)
    try:
        tracer.start_op("compare")
        assert cli.run(["dns", "compare", "--in", str(hexfile), "--out", str(tmp_path / "c.csv")]) == 0
        tracer.start_op("analyze")
        assert cli.run(["json", "analyze", "--in", str(docs), "--out", str(tmp_path / "j.csv")]) == 0
        tracer.start_op("roundtrip")
        msg = messages[0]
        role = dnscbor.ROLE_RESPONSE if msg.is_response else dnscbor.ROLE_QUERY
        ctx = dnscbor.CodecContext(role=role, request_question=None, mode=None)
        plain = dnscbor.encode_message(msg, ctx).item
        for mode in (dnspacked.PACKED_LITE, dnspacked.PACKED_FULL):
            data = dnspacked.pack(plain, mode).encode()
            item = dnspacked.unpack(dnspacked.PackedEnvelope.from_bytes(data))
            assert dnscbor.item_to_message(item, ctx) == msg
        for ref in (dnscbor.ComponentRef.one_plus_zero(), dnscbor.ComponentRef.one_plus_one()):
            refs = dnscbor.CodecContext(role=role, mode=ref)
            assert dnscbor.decode_message(dnscbor.encode_message(msg, refs).data, refs) == msg
    finally:
        spans.uninstall(saved)

    assert {name: getattr(cli, name) for name in originals} == originals
    assert dnspacked.PackedEnvelope.__dict__["from_bytes"] is from_bytes
    metrics = tracer.layer_metrics(1)
    assert [name for name in spans.SPAN_NAMES if metrics[name + ".calls"]["value"] == 0] == []
