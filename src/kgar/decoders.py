"""Task heads: classification softmax, ComplEx and DistMult triple scoring,
1-N candidate scoring for ranking, negative sampling, and the two loss
functions.

Entity features are the encoder output F. For complex-valued scoring a
feature row splits half/half: the first D/2 columns are the real part, the
rest the imaginary part. Relation embeddings are decoder-owned parameters,
independent of the encoder.

Training scores sampled triples on the tape (`score_triples`). Ranking
scores without the tape: `query_scorer` folds each (fixed entity,
relation, side) query into one D-vector and scores a block of queries
against all entities with one GEMM.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


# ---------------------------------------------------------------------------
# classification


def classify_forward(feats, head, node_ids):
    """Class probabilities for the given nodes: softmax(F[ids] @ head)."""
    logits = T.matmul(T.gather_rows(feats, np.asarray(node_ids)), head)
    return T.softmax_rows(logits)


def classification_loss(probs, class_ids, params=(), l2_coefficient=0.0):
    """Summed negative log-likelihood of the true classes plus L2.

    The L2 term covers the `regularized` parameters among `params` (the
    relation block weights, for this task).
    """
    loss = T.nll_true_class(probs, class_ids)
    if l2_coefficient:
        loss = T.add(loss, T.l2_penalty(params, l2_coefficient))
    return loss


# ---------------------------------------------------------------------------
# triple scoring (batched tape forms for training)


def complex_score_batch(w_re, w_im, f_s, f_o):
    """Per-row complex scores as an (n,1) column; all inputs are tensors of
    gathered rows (w_*: (n,D/2), f_*: (n,D))."""
    half = w_re.shape[1]
    s_re = T.slice_cols(f_s, 0, half)
    s_im = T.slice_cols(f_s, half, 2 * half)
    o_re = T.slice_cols(f_o, 0, half)
    o_im = T.slice_cols(f_o, half, 2 * half)
    t1 = T.mul(T.mul(w_re, s_re), o_re)
    t2 = T.mul(T.mul(w_re, s_im), o_im)
    t3 = T.mul(T.mul(w_im, s_re), o_im)
    t4 = T.mul(T.mul(w_im, s_im), o_re)
    return T.row_sum(T.sub(T.add(T.add(t1, t2), t3), t4))


def distmult_score_batch(w_diag, f_s, f_o):
    return T.row_sum(T.mul(w_diag, T.mul(f_s, f_o)))


def score_triples(params, feats, triples, decoder):
    """Scores for an (n,3) id array using gathered feature/relation rows.

    Returns (scores, [f_s, f_o]) so the caller can L2-penalize exactly the
    entity features that took part.
    """
    triples = np.asarray(triples)
    f_s = T.gather_rows(feats, triples[:, 0])
    f_o = T.gather_rows(feats, triples[:, 2])
    if decoder == "complex":
        w_re = T.gather_rows(params.rel_re, triples[:, 1])
        w_im = T.gather_rows(params.rel_im, triples[:, 1])
        scores = complex_score_batch(w_re, w_im, f_s, f_o)
    elif decoder == "distmult":
        w = T.gather_rows(params.rel_diag, triples[:, 1])
        scores = distmult_score_batch(w, f_s, f_o)
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    return scores, [f_s, f_o]


# ---------------------------------------------------------------------------
# 1-N candidate scoring for ranking (no tape; used by evaluation)


def _split(vec):
    half = vec.shape[-1] // 2
    return vec[..., :half], vec[..., half:]


def query_scorer(feats, params, decoder):
    """Bind a scorer of (q, 3) query rows to (q, |V|) candidate scores.

    A row (fixed, relation, side) asks for the head (side 0) of
    (?, relation, fixed) or the tail (side 1) of (fixed, relation, ?).
    Each query folds into one D-vector, so a block of rows is scored
    against every entity by a single (q x D)(D x |V|) product.
    """
    feats_t = feats.T
    if decoder == "complex":
        rel_re, rel_im = params.rel_re.values, params.rel_im.values

        def scorer(queries):
            f_re, f_im = _split(feats[queries[:, 0]])
            w_re, w_im = rel_re[queries[:, 1]], rel_im[queries[:, 1]]
            # score = Re(<w, s, conj(o)>): a tail query is Re(q conj(o))
            # with q = w s, a head query Re(s q) with q = w conj(o); the
            # row is [Re q, Im q] for tails and [Re q, -Im q] for heads
            sign = np.where(queries[:, 2] == 1, 1.0, -1.0)[:, None]
            q = np.hstack([w_re * f_re - sign * (w_im * f_im),
                           w_re * f_im + sign * (w_im * f_re)])
            return q @ feats_t
    elif decoder == "distmult":
        rel_diag = params.rel_diag.values

        def scorer(queries):
            return (feats[queries[:, 0]] * rel_diag[queries[:, 1]]) @ feats_t
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    return scorer


# ---------------------------------------------------------------------------
# negative sampling and the link loss


def sample_negatives(positives, num_entities, rng, known=None, filtered=False):
    """1:1 corruption: each positive is followed by one negative.

    The corrupted side is a fair coin; the replacement entity is uniform
    over the ids different from the original. With `filtered`, corruptions
    that collide with a known positive are resampled (bounded retries).
    """
    positives = np.asarray(positives, dtype=np.int64)
    if num_entities < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    m = positives.shape[0]
    samples = np.empty((2 * m, 3), dtype=np.int64)
    labels = np.empty(2 * m)
    for i, (h, r, t) in enumerate(positives):
        samples[2 * i] = (h, r, t)
        labels[2 * i] = 1.0
        corrupt_head = rng.random() < 0.5
        original = h if corrupt_head else t
        for _ in range(100):
            x = int(rng.integers(0, num_entities - 1))
            if x >= original:
                x += 1
            candidate = (x, r, t) if corrupt_head else (h, r, x)
            if not filtered or known is None or candidate not in known:
                break
        samples[2 * i + 1] = candidate
        labels[2 * i + 1] = 0.0
    return samples, labels


def link_loss(scores, labels, params=(), feature_tensors=(),
              l2_coefficient=0.0):
    """Mean base-2 binary cross entropy plus L2 on the decoder side.

    The L2 term covers the regularized parameters (relation embeddings)
    and the given entity-feature tensors (the rows used in this batch).
    """
    loss = T.binary_cross_entropy_bits(scores, labels)
    if l2_coefficient:
        loss = T.add(loss, T.l2_penalty(params, l2_coefficient))
        for feats in feature_tensors:
            loss = T.add(loss, T.scale(T.sum_squares(feats), l2_coefficient))
    return loss
