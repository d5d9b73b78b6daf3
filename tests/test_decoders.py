"""Decoder heads: classification logits and their cross entropy,
ComplEx/DistMult scoring laws, negative sampling statistics, the link
cross entropy, and each task's loss with the L2 term of the training
step."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
import tape_reference as R
from conftest import TOY_LABELS, TOY_TRIPLES, complex_score, \
    distmult_score, relation_params, to_oracle_params, toy_config, \
    toy_params, with_l2
from kgar import decoders as dec
from kgar import encoder as E
from kgar import tensor as T
from kgar.evaluation import FilterIndex
from kgar.tensor import Tensor


# ---------------------------------------------------------------------------
# classification head


def test_zero_head_uniform_probabilities():
    # zero logits: each row's softmax is uniform, its cross entropy ln 4
    feats = Tensor(np.random.default_rng(0).standard_normal((5, 6)))
    head = Tensor(np.zeros((6, 4)))
    logits = dec.classify_forward(feats, head, [0, 2, 4])
    assert not logits.values.any()
    assert T.softmax_cross_entropy(logits, [0, 1, 3]).item() == \
        pytest.approx(3.0 * math.log(4.0), abs=1e-15)


def test_two_class_logit_arithmetic():
    # logits (ln 3, 0) -> probabilities (0.75, 0.25)
    feats = Tensor(np.array([[1.0]]))
    head = Tensor(np.array([[math.log(3.0), 0.0]]))
    logits = dec.classify_forward(feats, head, [0])
    np.testing.assert_allclose(logits.values, [[math.log(3.0), 0.0]],
                               atol=1e-15)
    for k, p in enumerate((0.75, 0.25)):
        assert T.softmax_cross_entropy(logits, [k]).item() == \
            pytest.approx(-math.log(p), abs=1e-12)


def test_classify_matches_scalar_oracle(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    params = toy_params(cfg, task="classify", seed=21)
    feats = E.encode(toy_graph, params, cfg)
    ids = sorted(TOY_LABELS)
    logits = dec.classify_forward(feats, params.head, ids)

    op = to_oracle_params(params, 2)
    feats_oracle = oracle.encode(TOY_TRIPLES, 6, 3, op, 2)
    logits_oracle = oracle.classify_logits(feats_oracle, op["cls_W"], ids)
    np.testing.assert_allclose(logits.values, np.array(logits_oracle),
                               atol=1e-10)

    classes = [TOY_LABELS[i] for i in ids]
    loss = T.softmax_cross_entropy(logits, classes)
    loss_oracle = oracle.classification_loss(logits_oracle, classes)
    assert loss.item() == pytest.approx(loss_oracle, abs=1e-10)


def test_perfect_prediction_zero_loss():
    # exp(-1000) underflows to 0: each softmax is exactly its one-hot
    logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
    assert T.softmax_cross_entropy(logits, [0, 1]).item() == 0.0


def test_uniform_prediction_ln_k():
    probs = Tensor(np.full((1, 4), 0.25))
    assert T.softmax_cross_entropy(probs, [2]).item() == \
        pytest.approx(math.log(4.0), abs=1e-12)


def test_classification_loss_includes_l2():
    # the L2 term covers the regularized parameter only
    logits = Tensor(np.array([[1000.0, 0.0]]))
    reg = T.Parameter("q", [[2.0]], regularized=True)
    free = T.Parameter("h", [[5.0]])
    loss = with_l2(T.softmax_cross_entropy(logits, [0]), [reg, free], 0.0005)
    assert loss.item() == pytest.approx(0.0005 * 4.0, abs=1e-15)


def test_classification_grad_check(toy_graph):
    cfg = toy_config(embed_dim=4, num_layers=1, num_blocks=2)
    params = toy_params(cfg, task="classify", seed=22)
    ids = sorted(TOY_LABELS)
    classes = [TOY_LABELS[i] for i in ids]

    def loss():
        feats = E.encode(toy_graph, params, cfg)
        probs = dec.classify_forward(feats, params.head, ids)
        return with_l2(T.softmax_cross_entropy(probs, classes),
                       params.all_params(), 0.0005)

    assert R.grad_check(loss, params.all_params()) < 1e-4


# ---------------------------------------------------------------------------
# ComplEx / DistMult scoring laws


def test_complex_all_real_unit():
    feats = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert complex_score(0, 0, 1, feats, [[1.0]], [[0.0]]) == 1.0


def test_complex_imaginary_relation_antisymmetry():
    # w = i, s = 1, o = i: score +1; swapping (s,o) flips the sign
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    w_re, w_im = [[0.0]], [[1.0]]
    assert complex_score(0, 0, 1, feats, w_re, w_im) == 1.0
    assert complex_score(1, 0, 0, feats, w_re, w_im) == -1.0


def test_complex_zero_relation_scores_zero():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((4, 6))
    zero = np.zeros((1, 3))
    for s in range(4):
        for o in range(4):
            assert complex_score(s, 0, o, feats, zero, zero) == 0.0


def test_complex_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((5, 8))
    rel_re = rng.standard_normal((2, 4))
    rel_im = rng.standard_normal((2, 4))
    for s, r, o in [(0, 0, 1), (3, 1, 2), (4, 0, 4)]:
        got = complex_score(s, r, o, feats, rel_re, rel_im)
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
            f_so = complex_score(s, 0, o, feats, w_re, w_im)
            f_os = complex_score(o, 0, s, feats, w_re, w_im)
            assert f_so == pytest.approx(f_os, abs=1e-12)
            assert f_so == pytest.approx(
                distmult_score(s, 0, o, feats, diag), abs=1e-12)


def test_purely_imaginary_relation_antisymmetric_for_all_pairs():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((6, 8))
    w_re = np.zeros((1, 4))
    w_im = rng.standard_normal((1, 4))
    for s in range(6):
        for o in range(6):
            f_so = complex_score(s, 0, o, feats, w_re, w_im)
            f_os = complex_score(o, 0, s, feats, w_re, w_im)
            assert f_so == pytest.approx(-f_os, abs=1e-12)


def test_distmult_commutes_and_counts():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((4, 4))
    diag = rng.standard_normal((2, 4))
    for s in range(4):
        for o in range(4):
            assert distmult_score(s, 1, o, feats, diag) == \
                distmult_score(o, 1, s, feats, diag)
    ones = np.ones((2, 4))
    assert distmult_score(0, 0, 1, np.ones((2, 4)), ones) == 4.0


def test_distmult_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((5, 6))
    diag = rng.standard_normal((3, 6))
    got = distmult_score(2, 1, 4, feats, diag)
    expected = oracle.distmult_score(diag[1].tolist(), feats[2].tolist(),
                                     feats[4].tolist())
    assert got == expected


def test_score_triples_grad_check():
    # repeated entities (one row has head == tail) and relations make the
    # gathers' backward sum several rows of the fused score's gradient
    rng = np.random.default_rng(14)
    triples = np.array([(0, 1, 2), (2, 1, 0), (3, 0, 3), (0, 0, 1), (3, 1, 2)])
    for decoder, widths in (("complex", {"rel_re": 3, "rel_im": 3}),
                            ("distmult", {"rel_diag": 6})):
        feats = T.Parameter("feats", rng.standard_normal((4, 6)))
        relations = [T.Parameter(name, rng.standard_normal((2, width)))
                     for name, width in widths.items()]
        params = relation_params(**{p.name: p for p in relations})

        def loss():
            scores = dec.score_triples(params, feats, triples)
            return R.sum_squares(scores)

        assert R.grad_check(loss, [feats, *relations]) < 1e-4, decoder


def _scoring_inputs(decoder, seed):
    """Features, relation parameters and a stand-in model for 4 entities
    of width 6 and 2 relations."""
    rng = np.random.default_rng(seed)
    widths = {"complex": {"rel_re": 3, "rel_im": 3},
              "distmult": {"rel_diag": 6}}[decoder]
    feats = T.Parameter("feats", rng.standard_normal((4, 6)))
    relations = [T.Parameter(name, rng.standard_normal((2, width)))
                 for name, width in widths.items()]
    return feats, relations, relation_params(**{p.name: p for p in relations})


SCORED = np.array([(0, 1, 2), (2, 1, 0), (3, 0, 3), (0, 0, 1), (3, 1, 2)])


@pytest.mark.parametrize("decoder", ["complex", "distmult"])
def test_score_triples_grad_check_with_buffers(decoder):
    # one ScoreBuffers across every call of the check, taped and untaped,
    # gives the gradients of a call without one, bit for bit
    feats, relations, params = _scoring_inputs(decoder, 14)
    buffers = dec.ScoreBuffers()
    grads = []
    for shared in (None, buffers):
        def loss():
            scores = dec.score_triples(params, feats, SCORED, shared)
            return R.sum_squares(scores)

        assert R.grad_check(loss, [feats, *relations]) < 1e-4
        with T.Tape() as tape:
            total = loss()
        tape.backward(total)
        grads.append([p.grad for p in (feats, *relations)])
        for p in (feats, *relations):
            p.grad = None
    for fresh, reused in zip(*grads):
        assert np.array_equal(fresh, reused)


@pytest.mark.parametrize("decoder", ["complex", "distmult"])
def test_score_buffers_are_reused_until_the_batch_changes(decoder):
    # S, O and W stay in the same memory from call to call, taped or not;
    # the scores are new each call; a batch of another size gets new arrays
    feats, _, params = _scoring_inputs(decoder, 15)
    buffers = dec.ScoreBuffers()
    first = dec.score_triples(params, feats, SCORED, buffers)
    held = [buffers.s, buffers.o, buffers.w]
    expected = first.values.copy()
    with T.Tape() as tape:
        second = dec.score_triples(params, feats, SCORED[::-1], buffers)
        total = R.sum_squares(second)
    tape.backward(total)
    assert all(np.shares_memory(a, b) for a, b in
               zip(held, [buffers.s, buffers.o, buffers.w]))
    assert not np.shares_memory(first.values, second.values)
    assert np.array_equal(first.values, expected)
    assert np.array_equal(second.values, expected[::-1])
    dec.score_triples(params, feats, SCORED[:3], buffers)
    assert buffers.s.shape[0] == 3
    assert not np.shares_memory(held[0], buffers.s)


@pytest.mark.parametrize("decoder", ["complex", "distmult"])
def test_score_buffers_refuse_a_second_op_before_the_backward(decoder):
    # a taped call's backward reads its S, O and W, so no other call may
    # overwrite them first: not on the same tape, nor on a later one
    feats, _, params = _scoring_inputs(decoder, 16)
    buffers = dec.ScoreBuffers()
    with T.Tape() as tape:
        total = R.sum_squares(dec.score_triples(params, feats, SCORED,
                                                buffers))
        with pytest.raises(RuntimeError, match="backward has not run"):
            dec.score_triples(params, feats, SCORED, buffers)
        dec.score_triples(params, feats, SCORED, dec.ScoreBuffers())
    with pytest.raises(RuntimeError, match="backward has not run"):
        dec.score_triples(params, feats, SCORED, buffers)
    tape.backward(total)
    with T.Tape():
        dec.score_triples(params, feats, SCORED, buffers)


@pytest.mark.parametrize("decoder", ["complex", "distmult"])
@pytest.mark.parametrize("bad", [(-1, 0, 1), (0, 0, -1), (4, 0, 1),
                                 (0, 0, 4), (0, 2, 1), (0, -1, 1)],
                         ids=["head<0", "tail<0", "head>=V", "tail>=V",
                              "rel>=R", "rel<0"])
def test_score_triples_rejects_ids_out_of_range(decoder, bad):
    # numpy would wrap a negative id to another row without a word
    rng = np.random.default_rng(19)
    feats = Tensor(rng.standard_normal((4, 6)))
    widths = {"complex": {"rel_re": 3, "rel_im": 3},
              "distmult": {"rel_diag": 6}}[decoder]
    params = relation_params(**{name: Tensor(rng.standard_normal((2, w)))
                                for name, w in widths.items()})
    with pytest.raises(T.ShapeError, match="out of range"):
        dec.score_triples(params, feats, np.array([(0, 1, 2), bad]))


@pytest.mark.parametrize("decoder", ["complex", "distmult"])
def test_score_triples_reads_the_decoder_from_the_model(toy_graph, decoder):
    cfg = toy_config(embed_dim=8, num_layers=1, num_blocks=2)
    params = toy_params(cfg, task="linkpred", decoder=decoder, seed=26)
    feats = E.encode(toy_graph, params, cfg)
    scores = dec.score_triples(params, feats, np.array(TOY_TRIPLES))
    op, f = to_oracle_params(params, 2), feats.values.tolist()
    for k, (s, r, o) in enumerate(TOY_TRIPLES):
        if decoder == "complex":
            expected = oracle.complex_score(op["rel_re"][r], op["rel_im"][r],
                                            f[s], f[o])
        else:
            expected = oracle.distmult_score(op["rel_diag"][r], f[s], f[o])
        assert scores.values[k, 0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# batched scoring == single-triple scoring; all-candidate forms


def test_batch_scores_match_single(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=1, num_blocks=2)
    for decoder in ("complex", "distmult"):
        params = toy_params(cfg, task="linkpred", decoder=decoder, seed=23)
        feats = E.encode(toy_graph, params, cfg)
        triples = np.array(TOY_TRIPLES)
        scores = dec.score_triples(params, feats, triples)
        for k, (s, r, o) in enumerate(TOY_TRIPLES):
            if decoder == "complex":
                single = complex_score(s, r, o, feats.values,
                                       params.rel_re.values,
                                       params.rel_im.values)
            else:
                single = distmult_score(s, r, o, feats.values,
                                        params.rel_diag.values)
            assert scores.values[k, 0] == pytest.approx(single, abs=1e-10)


def test_all_candidate_scores_match_single(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=1, num_blocks=2)
    for decoder in ("complex", "distmult"):
        params = toy_params(cfg, task="linkpred", decoder=decoder, seed=24)
        feats = E.encode(toy_graph, params, cfg).values
        scorer = dec.query_scorer(feats, params)
        triple = (2, 1, 3)
        block = scorer(np.array([[3, 1, 0], [2, 1, 1]]))
        for side, all_scores in zip(("head", "tail"), block):
            assert all_scores.shape == (6,)
            for c in range(6):
                s, r, o = triple
                cand = (c, r, o) if side == "head" else (s, r, c)
                if decoder == "complex":
                    single = complex_score(*cand, feats,
                                           params.rel_re.values,
                                           params.rel_im.values)
                else:
                    single = distmult_score(*cand, feats,
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
        samples, labels = dec.sample_negatives(np.array([(0, 0, 1)]), 2, rng)
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
    contains = FilterIndex(np.array(sorted(known)), 3, 1).contains
    for _ in range(100):
        samples, _ = dec.sample_negatives(np.array([(0, 0, 1)]), 3, rng,
                                          known=contains)
        assert tuple(samples[1]) not in known


@pytest.mark.parametrize("size", [0, 1, 300])
def test_known_triples_membership_matches_a_set(size):
    rng = np.random.default_rng(16)
    triples = rng.integers(0, [7, 3, 7], (size, 3))
    probe = np.vstack([triples, rng.integers(0, [7, 3, 7], (200, 3)),
                       [(6, 2, 6), (0, 0, 0)]])
    known = set(map(tuple, triples.tolist()))
    got = FilterIndex(triples, 7, 3).contains(probe)
    assert got.dtype == bool
    np.testing.assert_array_equal(
        got, [tuple(t) in known for t in probe.tolist()])


def test_known_triples_refuse_keys_past_int64():
    with pytest.raises(ValueError, match="overflow"):
        FilterIndex(np.zeros((0, 3), dtype=np.int64), 2 ** 32, 1)


def test_known_triples_keep_the_sampling_stream():
    # the sorted keys answer as the tuple set did, so the same seed draws
    # the same corruptions
    rng = np.random.default_rng(17)
    triples = rng.integers(0, [6, 2, 6], (40, 3))
    known = set(map(tuple, triples.tolist()))

    def tuple_set(rows):
        return np.array([tuple(t) in known for t in rows.tolist()], bool)

    def draw(membership):
        return dec.sample_negatives(triples, 6, np.random.default_rng(18),
                                    known=membership)[0]

    expected = draw(tuple_set)
    assert not tuple_set(expected[1::2]).any()
    np.testing.assert_array_equal(
        draw(FilterIndex(triples, 6, 2).contains), expected)


# ---------------------------------------------------------------------------
# link loss: binary cross entropy in bits, plus L2 with the gathered rows


def test_link_loss_is_one_bit_at_zero_scores():
    scores = Tensor(np.zeros((4, 1)))
    loss = T.binary_cross_entropy_bits(scores, [1.0, 0.0, 1.0, 0.0])
    assert loss.item() == pytest.approx(1.0, abs=1e-12)


def test_link_loss_saturated_positive_near_zero():
    scores = Tensor(np.array([[30.0]]))
    assert T.binary_cross_entropy_bits(scores, [1.0]).item() < 1e-9


def test_link_loss_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((8, 1))
    y = (rng.random(8) < 0.5).astype(float)
    got = T.binary_cross_entropy_bits(Tensor(s), y).item()
    expected = oracle.link_loss(s[:, 0].tolist(), y.tolist())
    assert got == pytest.approx(expected, abs=1e-12)


def test_link_loss_l2_term():
    # row 0 is named three times (5 each), row 1 once (4), row 2 never
    scores = Tensor(np.zeros((2, 1)))
    rel = T.Parameter("w", [[3.0]], regularized=True)
    feats = Tensor(np.array([[1.0, 2.0], [2.0, 0.0], [7.0, 7.0]]))
    loss = with_l2(T.binary_cross_entropy_bits(scores, [1.0, 0.0]), [rel],
                   0.01, feats, [(0, 0, 1), (0, 0, 0)])
    assert loss.item() == pytest.approx(1.0 + 0.01 * 9.0 + 0.01 * 19.0,
                                        abs=1e-12)


def test_count_weighted_l2_equals_sum_over_gathered_rows():
    # repeated heads and tails, and a head that is its own tail: the
    # penalty and its gradient are those of the gathered f_s, f_o rows
    rng = np.random.default_rng(15)
    c = 0.01
    triples = np.array([(0, 1, 2), (2, 0, 0), (3, 1, 3), (0, 0, 2),
                        (3, 1, 0)])
    feats = T.Parameter("feats", rng.standard_normal((5, 6)))
    scores = Tensor(np.zeros((5, 1)))
    labels = np.ones(5)
    with T.Tape() as tape:
        loss = with_l2(T.binary_cross_entropy_bits(scores, labels), (), c,
                       feats, triples)
    tape.backward(loss)
    gathered = feats.values[np.concatenate([triples[:, 0], triples[:, 2]])]
    base = T.binary_cross_entropy_bits(scores, labels).item()
    assert loss.item() - base == pytest.approx(
        c * np.square(gathered).sum(), rel=1e-12, abs=0.0)
    expected = np.zeros_like(feats.values)
    np.add.at(expected, triples[:, 0], 2 * c * feats.values[triples[:, 0]])
    np.add.at(expected, triples[:, 2], 2 * c * feats.values[triples[:, 2]])
    np.testing.assert_allclose(feats.grad, expected, rtol=1e-12, atol=0)


def test_link_loss_grad_check(toy_graph):
    cfg = toy_config(embed_dim=4, num_layers=1, num_blocks=2)
    rng = np.random.default_rng(12)
    samples, labels = dec.sample_negatives(np.array(TOY_TRIPLES[:5]), 6, rng)
    for decoder in ("complex", "distmult"):
        params = toy_params(cfg, task="linkpred", decoder=decoder, seed=25)

        def loss():
            feats = E.encode(toy_graph, params, cfg)
            scores = dec.score_triples(params, feats, samples)
            return with_l2(T.binary_cross_entropy_bits(scores, labels),
                           params.all_params(), 0.01, feats, samples)

        assert R.grad_check(loss, params.all_params()) < 1e-4, decoder


def test_losses_finite_for_arbitrary_parameters():
    rng = np.random.default_rng(13)
    wild = Tensor(rng.standard_normal((6, 1)) * 1e6)
    assert np.isfinite(T.binary_cross_entropy_bits(wild, np.ones(6)).item())
    logits = rng.standard_normal((3, 4)) * 1e4
    loss = T.softmax_cross_entropy(Tensor(logits), [0, 1, 2]).item()
    # the other logits are so far below each row max that the loss is the
    # sum of the margins by which the true logits fall short of it
    margins = logits.max(axis=1) - logits[[0, 1, 2], [0, 1, 2]]
    assert np.isfinite(loss)
    assert loss == pytest.approx(margins.sum(), rel=1e-12)
