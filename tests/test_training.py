"""Training loop behavior: loss decrease, determinism, abort-on-NaN,
progress reports, the L2 term, and the small-step descent property."""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import TOY_LABELS, TOY_TRIPLES, with_l2
from kgar import decoders, training
from kgar import tensor as T
from kgar.config import resolve_config
from kgar.data import DIRECTIONS, KnowledgeGraph, LabelSet
from kgar.encoder import encode
from kgar.snapshot import MAGIC, load_snapshot, save_snapshot
from kgar.tensor import NumericFailure


def toy_run_config(task, **kw):
    base = dict(embed_dim=8, num_blocks=2, num_layers=2,
                dropout_attention=0.0, dropout_conv=0.0,
                iterations=200, learning_rate=0.01, eval_interval=50)
    base.update(kw)
    return resolve_config(task, cli_values=base)


def toy_labelset():
    return LabelSet(entities=np.array(list(TOY_LABELS)),
                    classes=np.array(list(TOY_LABELS.values())),
                    num_classes=4)


@pytest.fixture
def graph():
    return KnowledgeGraph(TOY_TRIPLES, 6, 3)


def train_recorded(graph, splits, cfg):
    """Train; returns the (iteration, loss, metric) of every progress
    report."""
    record = []
    training.train(graph, splits, cfg, cfg.task, seed=cfg.seed,
                   progress=lambda *report: record.append(report))
    return record


def test_classify_loss_decreases(graph):
    cfg = toy_run_config("classify", eval_interval=1, seed=1)
    record = train_recorded(graph, {"labels_train": toy_labelset()}, cfg)
    first, last = record[0][1], record[-1][1]
    assert last < first
    assert [r[0] for r in record] == list(range(1, 201))


def test_linkpred_loss_decreases(graph):
    cfg = toy_run_config("linkpred", iterations=200, batch_size=10,
                         eval_interval=1, seed=2)
    record = train_recorded(graph, {}, cfg)
    # sampled batches make single iterations noisy; compare averaged ends
    head = np.mean([loss for _, loss, _ in record[:20]])
    tail = np.mean([loss for _, loss, _ in record[-20:]])
    assert tail < head


def test_same_seed_bit_identical_params(graph, tmp_path):
    cfg = toy_run_config("classify", iterations=30, seed=7)
    splits = {"labels_train": toy_labelset()}
    r1 = training.train(graph, splits, cfg, "classify", seed=7)
    r2 = training.train(graph, splits, cfg, "classify", seed=7)
    for p1, p2 in zip(r1.params.all_params(), r2.params.all_params()):
        assert p1.name == p2.name
        np.testing.assert_array_equal(p1.values, p2.values)
    # and the snapshot files are byte-identical
    pa, pb = tmp_path / "a.kgar", tmp_path / "b.kgar"
    save_snapshot(pa, r1.params.all_params(), {"seed": 7})
    save_snapshot(pb, r2.params.all_params(), {"seed": 7})
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seed_differs(graph):
    splits = {"labels_train": toy_labelset()}
    r1, r2 = (training.train(graph, splits,
                             toy_run_config("classify", iterations=5,
                                            seed=seed),
                             "classify", seed=seed) for seed in (1, 2))
    assert any(not np.array_equal(p1.values, p2.values)
               for p1, p2 in zip(r1.params.all_params(),
                                 r2.params.all_params()))


def test_dropout_training_is_seed_deterministic(graph):
    cfg = toy_run_config("classify", iterations=20,
                         dropout_attention=0.4, dropout_conv=0.3, seed=9)
    splits = {"labels_train": toy_labelset()}
    r1 = training.train(graph, splits, cfg, "classify", seed=9)
    r2 = training.train(graph, splits, cfg, "classify", seed=9)
    for p1, p2 in zip(r1.params.all_params(), r2.params.all_params()):
        np.testing.assert_array_equal(p1.values, p2.values)


@pytest.mark.parametrize("task, seed", [
    ("linkpred", 7), ("linkpred", 0), ("classify", 7)],
    ids=["both", "task", "seed"])
def test_train_refuses_a_task_or_seed_its_config_does_not_state(graph, task,
                                                               seed):
    cfg = toy_run_config("classify", iterations=1)
    with pytest.raises(ValueError) as info:
        training.train(graph, {"labels_train": toy_labelset()}, cfg, task,
                       seed=seed)
    assert (f"train(task={task!r}, seed={seed}) disagrees with its config "
            "(task='classify', seed=0)") in str(info.value)


def test_numeric_failure_names_iteration(graph):
    cfg = toy_run_config("classify", iterations=50, learning_rate=1e200,
                         seed=3)
    with pytest.raises(NumericFailure, match=r"iteration \d+"), \
            np.errstate(all="ignore"):
        training.train(graph, {"labels_train": toy_labelset()},
                       cfg, "classify", seed=3)


# the parameters `model.schema` flags as regularized, per task and decoder
PENALIZED = {
    ("classify", "complex"): [f"layer{layer}.{direction}.blocks"
                              for layer in range(2)
                              for direction in DIRECTIONS],
    ("linkpred", "complex"): ["decoder.rel_re", "decoder.rel_im"],
    ("linkpred", "distmult"): ["decoder.rel_diag"],
}


def test_linkpred_steps_reuse_the_score_buffers(graph, monkeypatch):
    # every step of a run gathers S, O and W into the same memory, and a
    # step's scores stay as they were after the next step
    score_fn, calls = decoders.score_triples, []

    def spy_score(params, feats, triples, buffers=None):
        scores = score_fn(params, feats, triples, buffers)
        calls.append(([buffers.s, buffers.o, buffers.w], scores,
                      scores.values.copy()))
        return scores

    monkeypatch.setattr(decoders, "score_triples", spy_score)
    cfg = toy_run_config("linkpred", iterations=3, batch_size=4,
                         dropout_attention=0.3, seed=5)
    training.train(graph, {}, cfg, "linkpred", seed=cfg.seed)
    assert len(calls) == 3
    (first, *_), (second, *_), _ = calls
    assert all(np.shares_memory(a, b) for a, b in zip(first, second))
    assert all(np.array_equal(scores.values, values)
               for _, scores, values in calls)


@pytest.mark.parametrize("task, decoder", sorted(PENALIZED))
def test_train_l2_term_equals_scalar_oracle(monkeypatch, task, decoder):
    # one iteration at l2 = c and one at l2 = 0 from the same seed make the
    # same draws, so their losses differ by exactly the L2 term; the
    # self-loop (2, 1, 2) puts a head that is its own tail in the batch
    graph = KnowledgeGraph(TOY_TRIPLES + [(2, 1, 2)], 6, 3)
    splits = {"labels_train": toy_labelset()} if task == "classify" else {}
    encode_fn, score_fn = training.encode, decoders.score_triples
    seen = []

    def spy_encode(graph, params, config, rng):
        seen.append({p.name: p.values.tolist() for p in params.all_params()})
        return encode_fn(graph, params, config, rng)

    def spy_score(params, feats, triples, buffers=None):
        seen[-1]["batch"] = triples.tolist()
        seen[-1]["rows"] = [feats.values[i].tolist()
                            for triple in triples for i in triple[[0, 2]]]
        return score_fn(params, feats, triples, buffers)

    monkeypatch.setattr(training, "encode", spy_encode)
    monkeypatch.setattr(decoders, "score_triples", spy_score)
    c = 0.01
    losses = []
    for l2 in (c, 0.0):
        cfg = toy_run_config(task, iterations=1, l2=l2, decoder=decoder,
                             batch_size=32, dropout_attention=0.3,
                             dropout_conv=0.3, seed=12)
        (record,) = train_recorded(graph, splits, cfg)
        losses.append(record[1])
    first, second = seen
    assert first == second
    matrices = [first[name] for name in PENALIZED[task, decoder]]
    if task == "linkpred":
        assert any(h == t for h, _, t in first["batch"])
        matrices.append(first["rows"])
    expected = oracle.l2_sum(c, matrices)
    assert losses[0] - losses[1] == pytest.approx(expected, rel=1e-12)


def test_one_l2_rule_in_the_training_step():
    # training.train alone builds the L2 term, and decoders.py holds no
    # loss function that could add a second one
    package = Path(training.__file__).parent
    calls, losses = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) \
                        else getattr(func, "id", None)
                    if name == "l2_penalty":
                        calls.append(
                            f"{path.name}:{getattr(top, 'name', node.lineno)}")
        if path.name == "decoders.py":
            losses = [node.name for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name.endswith("_loss")]
    assert calls == ["training.py:train"]
    assert losses == []


def test_small_step_never_increases_full_batch_loss(graph):
    # descent property of one sgd_step at tiny lr on the same batch
    cfg = toy_run_config("classify", iterations=1)
    labels = toy_labelset()
    rng = np.random.default_rng(5)
    from kgar.model import init_params
    params = init_params(6, 3, cfg, "classify", rng, num_classes=4)

    def batch_loss():
        feats = encode(graph, params, cfg)
        probs = decoders.classify_forward(feats, params.head, labels.entities)
        return with_l2(T.softmax_cross_entropy(probs, labels.classes),
                       params.all_params(), cfg.l2)

    for _ in range(5):
        before = batch_loss().item()
        with T.Tape() as tape:
            loss = batch_loss()
        tape.backward(loss)
        T.sgd_step(params.all_params(), 1e-6)
        after = batch_loss().item()
        assert after <= before + 1e-12


def test_edgeless_graph_trains_with_zero_attention_gradient(monkeypatch):
    # with no triples the attention weights score nothing, yet every step
    # still hands them a gradient: zero
    grads = []
    sgd_step = T.sgd_step

    def spy(params, learning_rate):
        params = list(params)
        grads.append({p.name: p.grad for p in params})
        sgd_step(params, learning_rate)

    monkeypatch.setattr(T, "sgd_step", spy)
    labels = LabelSet(entities=np.array([0, 1, 2]),
                      classes=np.array([0, 1, 0]), num_classes=2)
    cfg = toy_run_config("classify", iterations=2, eval_interval=1)
    record = train_recorded(KnowledgeGraph([], 4, 2),
                            {"labels_train": labels}, cfg)
    assert len(record) == len(grads) == 2
    for step in grads:
        for layer in range(cfg.num_layers):
            grad = step[f"layer{layer}.att_w"]
            assert grad.shape == (8, 8) and not grad.any()


def test_adam_optimizer_variant_runs(graph):
    cfg = toy_run_config("classify", iterations=30, optimizer="adam",
                         learning_rate=0.005, eval_interval=1, seed=6)
    record = train_recorded(graph, {"labels_train": toy_labelset()}, cfg)
    assert record[-1][1] < record[0][1]


def test_linkpred_valid_metric_logged(graph):
    cfg = toy_run_config("linkpred", iterations=20, eval_interval=10,
                         batch_size=5, seed=8)
    valid = np.array(TOY_TRIPLES[:3])
    record = train_recorded(graph, {"valid": valid}, cfg)
    assert [r[0] for r in record] == [10, 20]
    assert all(0.0 < m <= 1.0 for _, _, m in record)


def test_snapshot_roundtrip_bit_exact(graph, tmp_path):
    from kgar.model import rebuild_params
    for task, decoder, splits in (
            ("classify", "complex", {"labels_train": toy_labelset()}),
            ("linkpred", "complex", {}), ("linkpred", "distmult", {})):
        cfg = toy_run_config(task, iterations=5, batch_size=5,
                             decoder=decoder, seed=10)
        result = training.train(graph, splits, cfg, task, seed=10)
        path = tmp_path / f"{task}-{decoder}.kgar"
        meta = {"task": task, "num_relations": 3}
        save_snapshot(path, result.params.all_params(), meta)
        got_meta, arrays = load_snapshot(path)
        assert got_meta == meta
        for p in result.params.all_params():
            np.testing.assert_array_equal(arrays[p.name], p.values)
        # rebuild into a structured ModelParams and re-encode identically
        rebuilt = rebuild_params(arrays, cfg, 6, 3, 4)
        assert ([(p.name, p.regularized) for p in rebuilt.all_params()]
                == [(p.name, p.regularized)
                    for p in result.params.all_params()])
        f1 = encode(graph, result.params, cfg).values
        f2 = encode(graph, rebuilt, cfg).values
        np.testing.assert_array_equal(f1, f2)
        for name in ("rel_re", "rel_im", "rel_diag", "head"):
            original = getattr(result.params, name)
            if original is not None:
                np.testing.assert_array_equal(
                    getattr(rebuilt, name).values, original.values)


@pytest.mark.parametrize("task, decoder", [
    ("classify", "complex"), ("linkpred", "complex"),
    ("linkpred", "distmult")])
def test_schema_lists_parameters_in_all_params_order(task, decoder):
    from kgar.model import init_params, schema
    cfg = toy_run_config(task)
    params = init_params(6, 3, cfg, task, np.random.default_rng(0),
                         num_classes=4, decoder=decoder)
    assert [(name, shape, regularized) for name, shape, _, regularized
            in schema(6, 3, cfg, task, decoder, 4)] == [
        (p.name, p.shape, p.regularized) for p in params.all_params()]


def test_snapshot_corruption_detected(tmp_path):
    from kgar.snapshot import SnapshotError
    p = tmp_path / "bad.kgar"
    p.write_bytes(b"NOTKGAR")
    with pytest.raises(SnapshotError):
        load_snapshot(p)
    q = tmp_path / "trunc.kgar"
    save_snapshot(q, [T.Parameter("w", np.ones((2, 2)))], {})
    q.write_bytes(q.read_bytes()[:-8])
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(q)
    # a header length past the end of the file is refused before the read
    q.write_bytes(MAGIC + struct.pack("<I", 2**32 - 1) + b"{}")
    with pytest.raises(SnapshotError, match="truncated header"):
        load_snapshot(q)


def test_failed_snapshot_save_keeps_the_previous_file(tmp_path):
    class Unwritable:
        # a parameter whose data raises once the header and the first
        # parameter are already written
        shape = (2, 2)

        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    path = tmp_path / "run.kgar"
    save_snapshot(path, [T.Parameter("w", np.arange(4.0).reshape(2, 2))],
                  {"round": 1})
    before = path.read_bytes()
    bad = T.Parameter("v", np.zeros((2, 2)))
    bad.values = Unwritable()
    with pytest.raises(OSError, match="disk full"):
        save_snapshot(path, [T.Parameter("w", np.ones((2, 2))), bad],
                      {"round": 2})
    assert path.read_bytes() == before
    meta, arrays = load_snapshot(path)
    assert meta == {"round": 1}
    np.testing.assert_array_equal(arrays["w"], np.arange(4.0).reshape(2, 2))
    assert [f.name for f in tmp_path.iterdir()] == ["run.kgar"]
