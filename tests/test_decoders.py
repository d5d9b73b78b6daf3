"""Decoder heads: classification probabilities/loss, ComplEx/DistMult
scoring laws, negative sampling statistics, and the link loss."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import TOY_LABELS, TOY_TRIPLES, to_oracle_params, toy_config, \
    toy_params
from kgar import decoders as dec
from kgar import encoder as E
from kgar import tensor as T
from kgar.tensor import Tensor


# ---------------------------------------------------------------------------
# classification head


def test_zero_head_uniform_probabilities():
    feats = Tensor(np.random.default_rng(0).standard_normal((5, 6)))
    head = Tensor(np.zeros((6, 4)))
    probs = dec.classify_forward(feats, head, [0, 2, 4])
    np.testing.assert_allclose(probs.values, 0.25, atol=1e-15)


def test_two_class_logit_arithmetic():
    # logits (ln 3, 0) -> probabilities (0.75, 0.25)
    feats = Tensor(np.array([[1.0]]))
    head = Tensor(np.array([[math.log(3.0), 0.0]]))
    probs = dec.classify_forward(feats, head, [0])
    np.testing.assert_allclose(probs.values, [[0.75, 0.25]], atol=1e-12)


def test_classify_matches_scalar_oracle(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    params = toy_params(cfg, task="classify", seed=21)
    feats = E.encode(toy_graph, params, cfg)
    ids = sorted(TOY_LABELS)
    probs = dec.classify_forward(feats, params.head, ids)

    op = to_oracle_params(params, 2)
    feats_oracle = oracle.encode(TOY_TRIPLES, 6, 3, op, 2)
    probs_oracle = oracle.classify_probs(feats_oracle, op["cls_W"], ids)
    np.testing.assert_allclose(probs.values, np.array(probs_oracle),
                               atol=1e-10)

    classes = [TOY_LABELS[i] for i in ids]
    loss = dec.classification_loss(probs, classes)
    loss_oracle = oracle.classification_loss(probs_oracle, classes)
    assert loss.item() == pytest.approx(loss_oracle, abs=1e-10)


def test_perfect_prediction_zero_loss():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert dec.classification_loss(probs, [0, 1]).item() == 0.0


def test_uniform_prediction_ln_k():
    probs = Tensor(np.full((1, 4), 0.25))
    assert dec.classification_loss(probs, [2]).item() == \
        pytest.approx(math.log(4.0), abs=1e-12)


def test_classification_loss_includes_l2():
    probs = Tensor(np.array([[1.0, 0.0]]))
    reg = T.Parameter("q", [[2.0]], regularized=True)
    loss = dec.classification_loss(probs, [0], [reg], l2_coefficient=0.0005)
    assert loss.item() == pytest.approx(0.0005 * 4.0, abs=1e-15)


def test_classification_grad_check(toy_graph):
    cfg = toy_config(embed_dim=4, num_layers=1, num_blocks=2)
    params = toy_params(cfg, task="classify", seed=22)
    ids = sorted(TOY_LABELS)
    classes = [TOY_LABELS[i] for i in ids]

    def loss():
        feats = E.encode(toy_graph, params, cfg)
        probs = dec.classify_forward(feats, params.head, ids)
        return dec.classification_loss(probs, classes, params.all_params(),
                                       l2_coefficient=0.0005)

    assert T.grad_check(loss, params.all_params()) < 1e-4


# ---------------------------------------------------------------------------
# ComplEx / DistMult scoring laws


def test_complex_all_real_unit():
    feats = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert dec.complex_score(0, 0, 1, feats, [[1.0]], [[0.0]]) == 1.0


def test_complex_imaginary_relation_antisymmetry():
    # w = i, s = 1, o = i: score +1; swapping (s,o) flips the sign
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    w_re, w_im = [[0.0]], [[1.0]]
    assert dec.complex_score(0, 0, 1, feats, w_re, w_im) == 1.0
    assert dec.complex_score(1, 0, 0, feats, w_re, w_im) == -1.0


def test_complex_zero_relation_scores_zero():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((4, 6))
    zero = np.zeros((1, 3))
    for s in range(4):
        for o in range(4):
            assert dec.complex_score(s, 0, o, feats, zero, zero) == 0.0


def test_complex_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((5, 8))
    rel_re = rng.standard_normal((2, 4))
    rel_im = rng.standard_normal((2, 4))
    for s, r, o in [(0, 0, 1), (3, 1, 2), (4, 0, 4)]:
        got = dec.complex_score(s, r, o, feats, rel_re, rel_im)
        expected = oracle.complex_score(rel_re[r].tolist(), rel_im[r].tolist(),
                                        feats[s].tolist(), feats[o].tolist())
        assert got == pytest.approx(expected, abs=1e-12)


def test_real_relation_symmetry_and_distmult_equivalence():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((6, 8))
    w_re = rng.standard_normal((1, 4))
    w_im = np.zeros((1, 4))
    diag = np.hstack([w_re, w_re])  # DistMult over [re, im] concatenation
    for s in range(6):
        for o in range(6):
            f_so = dec.complex_score(s, 0, o, feats, w_re, w_im)
            f_os = dec.complex_score(o, 0, s, feats, w_re, w_im)
            assert f_so == pytest.approx(f_os, abs=1e-12)
            assert f_so == pytest.approx(
                dec.distmult_score(s, 0, o, feats, diag), abs=1e-12)


def test_purely_imaginary_relation_antisymmetric_for_all_pairs():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((6, 8))
    w_re = np.zeros((1, 4))
    w_im = rng.standard_normal((1, 4))
    for s in range(6):
        for o in range(6):
            f_so = dec.complex_score(s, 0, o, feats, w_re, w_im)
            f_os = dec.complex_score(o, 0, s, feats, w_re, w_im)
            assert f_so == pytest.approx(-f_os, abs=1e-12)


def test_distmult_commutes_and_counts():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((4, 4))
    diag = rng.standard_normal((2, 4))
    for s in range(4):
        for o in range(4):
            assert dec.distmult_score(s, 1, o, feats, diag) == \
                dec.distmult_score(o, 1, s, feats, diag)
    ones = np.ones((2, 4))
    assert dec.distmult_score(0, 0, 1, np.ones((2, 4)), ones) == 4.0


def test_distmult_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((5, 6))
    diag = rng.standard_normal((3, 6))
    got = dec.distmult_score(2, 1, 4, feats, diag)
    expected = oracle.distmult_score(diag[1].tolist(), feats[2].tolist(),
                                     feats[4].tolist())
    assert got == expected


# ---------------------------------------------------------------------------
# batched scoring == single-triple scoring; all-candidate forms


def test_batch_scores_match_single(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=1, num_blocks=2)
    for decoder in ("complex", "distmult"):
        params = toy_params(cfg, task="linkpred", decoder=decoder, seed=23)
        feats = E.encode(toy_graph, params, cfg)
        triples = np.array(TOY_TRIPLES)
        scores, _ = dec.score_triples(params, feats, triples, decoder)
        for k, (s, r, o) in enumerate(TOY_TRIPLES):
            if decoder == "complex":
                single = dec.complex_score(s, r, o, feats.values,
                                           params.rel_re.values,
                                           params.rel_im.values)
            else:
                single = dec.distmult_score(s, r, o, feats.values,
                                            params.rel_diag.values)
            assert scores.values[k, 0] == pytest.approx(single, abs=1e-10)


def test_all_candidate_scores_match_single(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=1, num_blocks=2)
    for decoder in ("complex", "distmult"):
        params = toy_params(cfg, task="linkpred", decoder=decoder, seed=24)
        feats = E.encode(toy_graph, params, cfg).values
        scorer = dec.query_scorer(feats, params, decoder)
        triple = (2, 1, 3)
        block = scorer(np.array([[3, 1, 0], [2, 1, 1]]))
        for side, all_scores in zip(("head", "tail"), block):
            assert all_scores.shape == (6,)
            for c in range(6):
                s, r, o = triple
                cand = (c, r, o) if side == "head" else (s, r, c)
                if decoder == "complex":
                    single = dec.complex_score(*cand, feats,
                                               params.rel_re.values,
                                               params.rel_im.values)
                else:
                    single = dec.distmult_score(*cand, feats,
                                                params.rel_diag.values)
                assert all_scores[c] == pytest.approx(single, abs=1e-10)


# ---------------------------------------------------------------------------
# negative sampling


def test_negative_sampling_counts_and_interleaving():
    rng = np.random.default_rng(7)
    positives = np.array([(i % 5, i % 3, (i + 1) % 5) for i in range(50)])
    samples, labels = dec.sample_negatives(positives, 5, rng)
    assert samples.shape == (100, 3)
    assert labels.sum() == 50
    assert np.all(labels[0::2] == 1.0) and np.all(labels[1::2] == 0.0)
    np.testing.assert_array_equal(samples[0::2], positives)


def test_negative_differs_from_original_and_two_entity_case():
    rng = np.random.default_rng(8)
    for _ in range(200):
        samples, labels = dec.sample_negatives([(0, 0, 1)], 2, rng)
        neg = tuple(samples[1])
        assert neg in {(1, 0, 1), (0, 0, 0)}  # corrupted side flipped


def test_corruption_side_binomial_split():
    rng = np.random.default_rng(9)
    positives = np.tile([(3, 0, 7)], (10_000, 1))
    samples, _ = dec.sample_negatives(positives, 20, rng)
    negs = samples[1::2]
    head_corrupted = (negs[:, 0] != 3).mean()
    assert abs(head_corrupted - 0.5) < 0.02


def test_filtered_negative_sampling_avoids_known():
    rng = np.random.default_rng(10)
    # with 3 entities, tail corruptions of (0,0,1) are (0,0,0) or (0,0,2);
    # mark (0,0,2) known so only (0,0,0) remains
    known = {(0, 0, 2), (2, 0, 1)}
    for _ in range(100):
        samples, _ = dec.sample_negatives([(0, 0, 1)], 3, rng,
                                          known=known, filtered=True)
        assert tuple(samples[1]) not in known


# ---------------------------------------------------------------------------
# link loss


def test_link_loss_is_one_bit_at_zero_scores():
    scores = Tensor(np.zeros((4, 1)))
    loss = dec.link_loss(scores, [1.0, 0.0, 1.0, 0.0])
    assert loss.item() == pytest.approx(1.0, abs=1e-12)


def test_link_loss_saturated_positive_near_zero():
    scores = Tensor(np.array([[30.0]]))
    assert dec.link_loss(scores, [1.0]).item() < 1e-9


def test_link_loss_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((8, 1))
    y = (rng.random(8) < 0.5).astype(float)
    got = dec.link_loss(Tensor(s), y).item()
    expected = oracle.link_loss(s[:, 0].tolist(), y.tolist())
    assert got == pytest.approx(expected, abs=1e-12)


def test_link_loss_l2_term():
    scores = Tensor(np.zeros((2, 1)))
    rel = T.Parameter("w", [[3.0]], regularized=True)
    feats = Tensor(np.array([[1.0, 2.0]]))
    loss = dec.link_loss(scores, [1.0, 0.0], [rel], [feats],
                         l2_coefficient=0.01)
    assert loss.item() == pytest.approx(1.0 + 0.01 * 9.0 + 0.01 * 5.0,
                                        abs=1e-12)


def test_link_loss_grad_check(toy_graph):
    cfg = toy_config(embed_dim=4, num_layers=1, num_blocks=2)
    params = toy_params(cfg, task="linkpred", decoder="complex", seed=25)
    rng = np.random.default_rng(12)
    samples, labels = dec.sample_negatives(np.array(TOY_TRIPLES[:5]), 6, rng)

    def loss():
        feats = E.encode(toy_graph, params, cfg)
        scores, used = dec.score_triples(params, feats, samples, "complex")
        return dec.link_loss(scores, labels, params.all_params(), used,
                             l2_coefficient=0.01)

    assert T.grad_check(loss, params.all_params()) < 1e-4


def test_losses_finite_for_arbitrary_parameters():
    rng = np.random.default_rng(13)
    wild = Tensor(rng.standard_normal((6, 1)) * 1e6)
    assert np.isfinite(dec.link_loss(wild, np.ones(6)).item())
    probs = T.softmax_rows(Tensor(rng.standard_normal((3, 4)) * 1e4))
    assert np.isfinite(dec.classification_loss(probs, [0, 1, 2]).item())
