"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Each test finishes by printing a single `criterion N` line with the
measured values (visible under `pytest -rA` or on failure). Criteria 3
and 4 need the AIFB / MUTAG datasets on disk and skip with fetch
instructions when they are absent; criterion 9 is explicitly not gated
at desk scale and only checks that the extended-run script ships.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import scalar_oracle as oracle
import tape_reference as R
from conftest import (TOY_LABELS, TOY_RELATIONS, TOY_TRIPLES,
                      antisymmetric_relations, attention_weights,
                      complex_score, distmult_score, relation_rows,
                      to_oracle_params, toy_config, toy_params, with_l2)
from kgar import datasets, decoders, evaluation, synthetic, training
from kgar.config import resolve_config
from kgar.data import DataError, KnowledgeGraph
from kgar.encoder import conv_stack, encode
from kgar.model import init_params
from kgar.snapshot import save_snapshot
from kgar.tensor import (Tensor, binary_cross_entropy_bits,
                         softmax_cross_entropy)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def toy_graph():
    return KnowledgeGraph(TOY_TRIPLES, 6, TOY_RELATIONS)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness on the 6-node, 3-relation toy graph


def test_criterion_1_gradient_correctness():
    started = time.time()
    graph = toy_graph()
    config = toy_config(embed_dim=6, num_layers=2, num_blocks=3)

    cls_params = toy_params(config, task="classify")
    ids = np.array(sorted(TOY_LABELS), dtype=np.int64)
    classes = np.array([TOY_LABELS[i] for i in ids], dtype=np.int64)

    def classification_loss():
        feats = encode(graph, cls_params, config)
        probs = decoders.classify_forward(feats, cls_params.head, ids)
        return with_l2(softmax_cross_entropy(probs, classes),
                       cls_params.all_params(), 0.0005)

    err_cls = R.grad_check(classification_loss, cls_params.all_params())

    link_params = toy_params(config, task="linkpred", seed=1)
    samples = np.array(TOY_TRIPLES[:4] + [(1, 0, 4), (5, 2, 2), (0, 1, 5),
                                          (3, 1, 2)], dtype=np.int64)
    labels = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def link_loss():
        feats = encode(graph, link_params, config)
        scores = decoders.score_triples(link_params, feats, samples)
        return with_l2(binary_cross_entropy_bits(scores, labels),
                       link_params.all_params(), 0.01, feats, samples)

    err_link = R.grad_check(link_loss, link_params.all_params())
    took = time.time() - started

    assert err_cls < 1e-4
    assert err_link < 1e-4
    assert took < 10.0
    print(f"criterion 1: grad_check classification {err_cls:.2e}, "
          f"link {err_link:.2e} (< 1e-4), {took:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence of encoder and both decoders


def test_criterion_2_oracle_equivalence():
    started = time.time()
    config = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    params = toy_params(config, task="linkpred", seed=3)
    graph = toy_graph()

    feats = encode(graph, params, config).values
    oparams = to_oracle_params(params, config.num_blocks)
    ofeats = np.array(oracle.encode(TOY_TRIPLES, 6, TOY_RELATIONS, oparams,
                                    config.num_blocks))
    err_enc = np.abs(feats - ofeats).max()

    cls_params = toy_params(config, task="classify", seed=4)
    cfeats = encode(graph, cls_params, config)
    ids = np.array([0, 2, 5], dtype=np.int64)
    probs = R.softmax_rows(
        decoders.classify_forward(cfeats, cls_params.head, ids)).values
    oprobs = np.array(oracle.classify_probs(
        [row for row in cfeats.values.tolist()],
        cls_params.head.values.tolist(), ids.tolist()))
    err_cls = np.abs(probs - oprobs).max()

    dm_params = toy_params(config, task="linkpred", seed=3,
                           decoder="distmult")
    err_complex = err_distmult = 0.0
    for (s, r, o) in [(0, 0, 1), (3, 2, 4), (5, 1, 0), (2, 2, 2)]:
        got_c = complex_score(s, r, o, feats, params.rel_re.values,
                              params.rel_im.values)
        want_c = oracle.complex_score(params.rel_re.values[r].tolist(),
                                      params.rel_im.values[r].tolist(),
                                      feats[s].tolist(), feats[o].tolist())
        err_complex = max(err_complex, abs(got_c - want_c))
        got_d = distmult_score(s, r, o, feats, dm_params.rel_diag.values)
        want_d = oracle.distmult_score(dm_params.rel_diag.values[r].tolist(),
                                       feats[s].tolist(), feats[o].tolist())
        err_distmult = max(err_distmult, abs(got_d - want_d))
    took = time.time() - started

    assert err_enc < 1e-8
    assert err_cls < 1e-8
    assert err_complex < 1e-8
    assert err_distmult < 1e-8
    assert took < 5.0
    print(f"criterion 2: oracle deltas encoder {err_enc:.2e}, classifier "
          f"{err_cls:.2e}, complex {err_complex:.2e}, distmult "
          f"{err_distmult:.2e} (< 1e-8), {took:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# criteria 3 and 4: RDF benchmark classification


def _classification_accuracies(name, seeds=(0, 1, 2, 3, 4),
                               per_seed_limit=1800.0):
    try:
        path = datasets.resolve_dataset_dir(name)
    except DataError:
        pytest.skip(
            f"{name} dataset not on disk (this sandbox has no network "
            f"access). To run this criterion: fetch and convert the dataset "
            f"per `python3 scripts/fetch_datasets.py --list`, place it "
            f"under $KGAR_DATA_DIR/{name}/, then re-run pytest.")
    bundle_dir = os.path.join(path, datasets.BUNDLE_DIR)
    if not os.path.exists(os.path.join(bundle_dir, datasets.MANIFEST)):
        datasets.write_bundle(bundle_dir, datasets.preprocess(path))
    bundle = datasets.load_bundle(bundle_dir)
    base = resolve_config("classify", datasets.dataset_defaults(name), None,
                          {"dataset_dir": path})
    accuracies = []
    for seed in seeds:
        started = time.time()
        config = replace(base, seed=seed)
        result = training.train(bundle.graph, {"labels_train":
                                               bundle.labels["train"]},
                                config, "classify", seed=seed)
        acc = training.evaluate_classification(
            bundle.graph, result.params, config, bundle.labels["test"])
        took = time.time() - started
        assert took < per_seed_limit, (
            f"{name} seed {seed} took {took:.0f}s (limit {per_seed_limit}s)")
        accuracies.append(acc)
    return accuracies


def test_criterion_3_aifb_classification():
    accuracies = _classification_accuracies("aifb")
    mean, best = float(np.mean(accuracies)), float(np.max(accuracies))
    assert mean >= 90.0
    assert best >= 94.0
    print(f"criterion 3: AIFB mean {mean:.2f} (>= 90.0), best {best:.2f} "
          f"(>= 94.0) over 5 seeds")


def test_criterion_4_mutag_classification():
    accuracies = _classification_accuracies("mutag")
    mean = float(np.mean(accuracies))
    assert mean >= 68.0
    print(f"criterion 4: MUTAG mean {mean:.2f} (>= 68.0) over 5 seeds")


# ---------------------------------------------------------------------------
# criterion 5: synthetic link prediction separates the decoders


def test_criterion_5_synthetic_link_prediction(tmp_path):
    started = time.time()
    root = str(tmp_path / "synthetic")
    synthetic.write_dataset(root)
    bundle_dir = os.path.join(root, datasets.BUNDLE_DIR)
    datasets.write_bundle(bundle_dir, datasets.preprocess(root))
    bundle = datasets.load_bundle(bundle_dir)

    with open(os.path.join(root, "patterns.json"), encoding="utf-8") as fh:
        patterns = json.load(fh)
    anti_names = antisymmetric_relations(patterns)
    anti_ids = {bundle.relation_names.index(n) for n in anti_names}
    test = bundle.splits["test"]
    anti_test = test[[int(t[1]) in anti_ids for t in test]]
    assert len(anti_test)

    train = bundle.graph.triple_array()
    known = evaluation.FilterIndex(
        np.concatenate([train, bundle.splits["valid"], test]),
        bundle.num_entities, bundle.num_relations)
    splits = {"valid": bundle.splits["valid"]}

    metrics = {}
    for decoder in ("complex", "distmult"):
        config = resolve_config(
            "linkpred", datasets.dataset_defaults("synthetic"), None,
            {"dataset_dir": root, "decoder": decoder})
        result = training.train(bundle.graph, splits, config, "linkpred",
                                seed=config.seed)
        all_results = training.evaluate_links(
            bundle.graph, result.params, config, test, known)
        anti_results = training.evaluate_links(
            bundle.graph, result.params, config, anti_test, known)
        metrics[decoder] = {
            "hits10": evaluation.hits_at_k(all_results, 10, "filtered"),
            "anti_mrr": evaluation.mrr(anti_results, "filtered"),
        }
    took = time.time() - started

    assert metrics["complex"]["hits10"] >= 0.80
    assert metrics["complex"]["anti_mrr"] > metrics["distmult"]["anti_mrr"]
    assert took < 600.0
    print(f"criterion 5: complex filtered hits@10 "
          f"{metrics['complex']['hits10']:.3f} (>= 0.80); antisymmetric "
          f"filtered MRR complex {metrics['complex']['anti_mrr']:.3f} > "
          f"distmult {metrics['distmult']['anti_mrr']:.3f}; "
          f"{took:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# criterion 6: metric laws on randomized result sets


def _brute_mrr(test_triples, scorer, known_set, num_entities, setting):
    ranks = []
    for (s, r, o) in test_triples:
        for side in ("head", "tail"):
            target = s if side == "head" else o
            query = (o, r, 0) if side == "head" else (s, r, 1)
            scores = scorer(np.array([query]))[0]
            removed = set()
            if setting == "filtered":
                for c in range(num_entities):
                    cand = (c, r, o) if side == "head" else (s, r, c)
                    if cand in known_set and c != target:
                        removed.add(c)
            greater = equal = 0
            for c in range(num_entities):
                if c == target or c in removed:
                    continue
                if scores[c] > scores[target]:
                    greater += 1
                elif scores[c] == scores[target]:
                    equal += 1
            ranks.append(1.0 + greater + 0.5 * equal)
    return float((1.0 / np.array(ranks)).mean())


def test_criterion_6_metric_laws():
    started = time.time()
    rng = np.random.default_rng(99)
    for trial in range(1000):
        v = int(rng.integers(3, 21))
        num_rel = int(rng.integers(1, 4))
        table = np.round(rng.normal(size=(num_rel, 2, v)), 1)

        def scorer(q):
            return table[q[:, 1], q[:, 2]]

        num_test = int(rng.integers(1, 5))
        test = [(int(rng.integers(v)), int(rng.integers(num_rel)),
                 int(rng.integers(v))) for _ in range(num_test)]
        extra = [(int(rng.integers(v)), int(rng.integers(num_rel)),
                  int(rng.integers(v))) for _ in range(int(rng.integers(8)))]
        known = set(test) | set(extra)

        results = evaluation.evaluate_ranking(
            np.array(test), scorer,
            evaluation.FilterIndex(np.array(list(known)), v, num_rel))
        m_raw, m_filt = (evaluation.mrr(results, s) for s in
                         ("raw", "filtered"))
        assert m_filt >= m_raw
        for setting in ("raw", "filtered"):
            h1, h3, h10 = (evaluation.hits_at_k(results, k, setting)
                           for k in (1, 3, 10))
            assert h1 <= h3 <= h10
        for k in (1, 3, 10):
            assert (evaluation.hits_at_k(results, k, "filtered")
                    >= evaluation.hits_at_k(results, k, "raw"))
        assert m_raw == _brute_mrr(test, scorer, known, v, "raw")
        assert m_filt == _brute_mrr(test, scorer, known, v, "filtered")
    took = time.time() - started
    assert took < 60.0
    print(f"criterion 6: 1000 random result sets obey filtered >= raw and "
          f"hits@1 <= hits@3 <= hits@10; MRR matches brute force exactly; "
          f"{took:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 7: structural invariants


def test_criterion_7_structural_invariants():
    started = time.time()
    graph = toy_graph()
    config = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    rng = np.random.default_rng(11)

    # attention rows: softmax over every (destination, relation) segment,
    # as a directional pass computes it from a score column
    for direction in ("forward", "backward"):
        plan = graph.plan(direction)
        raw = Tensor(rng.normal(size=(plan.src.size, 1)))
        alpha = attention_weights(graph, raw, direction)
        sums = np.add.reduceat(alpha, plan.seg_starts)
        assert np.abs(sums - 1.0).max() < 1e-9

    # block assembly: off-block entries exactly zero
    dense = R.assemble_block_weight(
        [rng.normal(size=(4, 4)) for _ in range(2)])
    mask = np.zeros((8, 8), dtype=bool)
    for b in range(2):
        mask[b * 4:(b + 1) * 4, b * 4:(b + 1) * 4] = True
    assert np.all(dense[~mask] == 0.0)

    # permutation equivariance of the full encoding
    params = toy_params(config, task="classify", seed=5)
    feats = encode(graph, params, config).values
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    permuted_triples = [(int(perm[h]), r, int(perm[t]))
                        for h, r, t in TOY_TRIPLES]
    pgraph = KnowledgeGraph(permuted_triples, 6, TOY_RELATIONS)
    pparams = toy_params(config, task="classify", seed=5)
    pparams.embedding.values[:] = params.embedding.values[inv]
    pfeats = encode(pgraph, pparams, config).values
    perm_err = np.abs(pfeats[perm] - feats).max()
    assert perm_err < 1e-9

    # relation ablation: zeroed blocks for a relation == deleting its edges
    ablated = toy_params(config, task="classify", seed=5)
    for layer in range(len(ablated.layers)):
        for direction in ("forward", "backward"):
            relation_rows(ablated, layer, direction)[1] = 0.0
    kept = [t for t in TOY_TRIPLES if t[1] != 1]
    dgraph = KnowledgeGraph(kept, 6, TOY_RELATIONS)
    abl_err = np.abs(conv_stack(graph, ablated, config).values
                     - conv_stack(dgraph, ablated, config).values).max()
    assert abl_err < 1e-9

    # decoder algebra: real w is symmetric, imaginary w antisymmetric
    feats = rng.normal(size=(6, 8))
    w_re = rng.normal(size=(3, 4))
    zeros = np.zeros_like(w_re)
    sym_err = anti_err = 0.0
    for (s, r, o) in [(0, 0, 1), (2, 1, 3), (4, 2, 5), (1, 1, 1)]:
        fwd = complex_score(s, r, o, feats, w_re, zeros)
        rev = complex_score(o, r, s, feats, w_re, zeros)
        sym_err = max(sym_err, abs(fwd - rev))
        fwd = complex_score(s, r, o, feats, zeros, w_re)
        rev = complex_score(o, r, s, feats, zeros, w_re)
        anti_err = max(anti_err, abs(fwd + rev))
    assert sym_err < 1e-12
    assert anti_err < 1e-12

    took = time.time() - started
    assert took < 60.0
    print(f"criterion 7: attention sums 1e-9, off-block zeros exact, "
          f"permutation equivariance {perm_err:.1e}, relation ablation "
          f"{abl_err:.1e} (< 1e-9), decoder symmetry {sym_err:.1e} / "
          f"antisymmetry {anti_err:.1e} (< 1e-12); {took:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 8: bit-identical snapshots for identical seeds


def test_criterion_8_deterministic_snapshots(tmp_path):
    graph = toy_graph()
    config = resolve_config("linkpred", None, None, {
        "dataset_dir": str(tmp_path), "embed_dim": 8, "num_blocks": 2,
        "num_layers": 2, "iterations": 25, "batch_size": 6,
        "eval_interval": 10, "dropout_attention": 0.3, "dropout_conv": 0.3,
        "seed": 13})
    paths = []
    for run in range(2):
        result = training.train(graph, {}, config, "linkpred", seed=13)
        path = tmp_path / f"run{run}.kgar"
        save_snapshot(str(path), result.params.all_params(), {"run": "toy"})
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    print(f"criterion 8: two seeded toy training runs produced bit-identical "
          f"{len(first)}-byte snapshots")


# ---------------------------------------------------------------------------
# criterion 9: FB15K-237 is an extended run, not a desk gate


def test_criterion_9_fb15k237_extended_run_documented():
    script = os.path.join(REPO_ROOT, "scripts", "run_fb15k237.sh")
    assert os.path.exists(script), "extended-run script missing"
    text = open(script, encoding="utf-8").read()
    assert "0.20" in text and "0.35" in text, "targets not documented"
    assert "results" in text, "results log not documented"
    print("criterion 9: FB15K-237 full run is not desk-gated; extended-run "
          "script ships with targets filtered MRR >= 0.20, hits@10 >= 0.35 "
          "and a results log")
