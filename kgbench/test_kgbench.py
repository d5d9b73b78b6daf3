"""The benchmark's own tests: `python3 -m pytest -q kgbench`.

Smoke runs use the seconds-long --toy inputs; every run is its own
process, as in a real benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import kgar.decoders  # noqa: E402
import kgar.encoder  # noqa: E402
import kgar.tensor  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, out_dir, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("kgbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--toy", "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_the_declared_metrics(workload, trace, tmp_path):
    proc = _run(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and np.isfinite(value)
        if not trace:
            assert value > 0
    # generated inputs are removed; only a traced run leaves its span file
    assert [p.name for p in tmp_path.iterdir()] == (
        [f"trace-{workload}-seed3.json"] if trace else [])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _current(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr)


def test_traced_pass_restores_every_wrapped_callable(toy_graph_and_params):
    tracer = tracing.Tracer("test")
    before = [(owner, attr, _current(owner, attr))
              for owner, attr, _ in tracing.targets(tracer)]
    graph, params, cfg = toy_graph_and_params
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracer):
            assert kgar.encoder.T is not kgar.tensor
            kgar.training.encode(graph, params, cfg)
            1 / 0
    for owner, attr, original in before:
        assert _current(owner, attr) is original, attr
    names = {span[0] for span in tracer.spans}
    assert {"encoder.encode", "encoder.conv_l0_forward",
            "encoder.aggregate", "encoder.projections"} <= names
    # each span's self time is its share: they add up to the whole
    top = [s for s in tracer.spans if s[3] == -1]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        sum(end - start for _, start, end, _ in top))


def test_a_missing_target_fails_before_patching(monkeypatch):
    tracer = tracing.Tracer("test")
    before = [(owner, attr, _current(owner, attr))
              for owner, attr, _ in tracing.targets(tracer)]
    monkeypatch.delattr(kgar.decoders, "sample_negatives")
    with pytest.raises(AttributeError, match="sample_negatives"):
        with tracing.installed(tracer):
            pass
    for owner, attr, original in before:
        if attr != "sample_negatives":
            assert _current(owner, attr) is original, attr


@pytest.fixture
def toy_graph_and_params():
    from kgar.data import KnowledgeGraph
    from kgar.encoder import EncoderConfig
    from kgar.model import init_params
    graph = KnowledgeGraph([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0)], 4, 2)
    cfg = EncoderConfig(embed_dim=4, num_layers=1, num_blocks=2,
                        dropout_attention=0.0, dropout_conv=0.0)
    params = init_params(4, 2, cfg, "linkpred", np.random.default_rng(0))
    return graph, params, cfg


def test_reference_ranks_average_ties_and_filter_known_triples():
    # relation 0, real part 1 and imaginary part 0: score = <s, o> on the
    # real half, so candidates 1 and 2 tie for the tail of (0, 0, 1)
    feats = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    rel_re, rel_im = np.ones((1, 1)), np.zeros((1, 1))
    test = [(0, 0, 1)]
    raw, filtered = reference.ranks(feats, rel_re, rel_im, test,
                                    known=[(0, 0, 1), (0, 0, 3)])
    # head query: scores <e, f_1> = 2, 4, 4, 6 for heads 0..3, target 0
    assert raw[0] == 4.0 and filtered[0] == 4.0
    # tail query: 1, 2, 2, 3 with target 1; entity 3 is a known tail
    assert raw[1] == 2.5 and filtered[1] == 1.5
    rep = reference.report(raw, filtered)
    assert reference.law_violations(rep) == []
    assert reference.mismatches(dict(rep, hits3=rep["hits3"] + 1e-6),
                                rep) == ["hits3"]
