"""Task heads: classification softmax, ComplEx and DistMult triple scoring,
1-N candidate scoring for ranking, negative sampling, and the two loss
functions.

Entity features are the encoder output F. For complex-valued scoring a
feature row splits half/half: the first D/2 columns are the real part, the
rest the imaginary part. Relation embeddings are decoder-owned parameters,
independent of the encoder.

Each decoder's formula is stated once, in `_fold`, the bilinear form
with one argument left open. Training scores sampled triples on the tape
(`score_triples`): after the row gathers, one fused op scores
<w, fold(f_s, f_o)> and its backward folds the other two operands.
Ranking scores without the tape: `query_scorer` folds each (fixed
entity, relation, side) query into one D-vector and scores a block of
queries against all entities with one GEMM.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, _acc, _record


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
        loss = T.add(loss, T.l2_penalty([p for p in params if p.regularized],
                                        l2_coefficient))
    return loss


# ---------------------------------------------------------------------------
# triple scoring: training (one tape op) and 1-N ranking (no tape)


def _split(vec):
    half = vec.shape[-1] // 2
    return vec[..., :half], vec[..., half:]


def _relations(params, decoder):
    """The decoder's relation-embedding parameters, in column order."""
    if decoder == "complex":
        return [params.rel_re, params.rel_im]
    if decoder == "distmult":
        return [params.rel_diag]
    raise ValueError(f"unknown decoder {decoder!r}")


def _fold(decoder, a, f, sign):
    """The decoder's bilinear form with one argument still open.

    DistMult gives a * f. ComplEx gives [Re q, Im q] of q = a f for sign
    +1 and [Re q, -Im q] of q = a conj(f) for sign -1, so a triple scores
    Re(<w, s, conj(o)>) = <w, fold(s, o, -1)>. The fold is linear in
    each argument; `score_triples` differentiates through it.
    """
    if decoder == "distmult":
        return a * f
    a_re, a_im = _split(a)
    f_re, f_im = _split(f)
    return np.hstack([a_re * f_re - sign * (a_im * f_im),
                      a_re * f_im + sign * (a_im * f_re)])


def score_triples(params, feats, triples, decoder):
    """Scores for an (n,3) id array using gathered feature/relation rows.

    After the gathers the score is one tape op, <w, fold(f_s, f_o, -1)>
    per row, whose backward folds the other two operands. Returns
    (scores, [f_s, f_o]) so the caller can L2-penalize exactly the entity
    features that took part.
    """
    triples = np.asarray(triples)
    relations = _relations(params, decoder)
    f_s = T.gather_rows(feats, triples[:, 0])
    f_o = T.gather_rows(feats, triples[:, 2])
    rels = [T.gather_rows(p, triples[:, 1]) for p in relations]
    w = np.hstack([r.values for r in rels])
    p = _fold(decoder, f_s.values, f_o.values, -1.0)
    out = Tensor((w * p).sum(axis=1, keepdims=True))

    def bw(g):
        gw = g * w
        _acc(f_s, _fold(decoder, gw, f_o.values, -1.0))
        _acc(f_o, _fold(decoder, f_s.values, gw, 1.0))
        for r, gr in zip(rels, np.hsplit(g * p, len(rels))):
            _acc(r, gr)

    _record(out, bw)
    return out, [f_s, f_o]


def query_scorer(feats, params, decoder):
    """Bind a scorer of (q, 3) query rows to (q, |V|) candidate scores.

    A row (fixed, relation, side) asks for the head (side 0) of
    (?, relation, fixed) or the tail (side 1) of (fixed, relation, ?).
    Each query folds into one D-vector, so a block of rows is scored
    against every entity by a single (q x D)(D x |V|) product.
    """
    feats_t = feats.T
    rel = np.hstack([p.values for p in _relations(params, decoder)])

    def scorer(queries):
        # ComplEx scores Re(<w, s, conj(o)>): a tail query is Re(q conj(o))
        # with q = w s, a head query Re(s q) with q = w conj(o); the row is
        # [Re q, Im q] for tails and [Re q, -Im q] for heads. DistMult's
        # fold ignores the sign.
        sign = np.where(queries[:, 2] == 1, 1.0, -1.0)[:, None]
        q = _fold(decoder, rel[queries[:, 1]], feats[queries[:, 0]], sign)
        return q @ feats_t

    return scorer


# ---------------------------------------------------------------------------
# negative sampling and the link loss


def sample_negatives(positives, num_entities, rng, known=None):
    """1:1 corruption of an (m, 3) int64 array: each positive is followed
    by one negative.

    The corrupted side is a fair coin; the replacement entity is uniform
    over the ids different from the original. With a `known` set of
    (head, relation, tail) tuples, corruptions that collide with one are
    resampled (bounded retries).
    """
    if num_entities < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    m = positives.shape[0]
    side = np.where(rng.random(m) < 0.5, 0, 2)
    negatives = positives.copy()

    def corrupt(rows):
        original = positives[rows, side[rows]]
        x = rng.integers(0, num_entities - 1, rows.size)
        negatives[rows, side[rows]] = x + (x >= original)

    pending = np.arange(m)
    corrupt(pending)
    if known is not None:
        for _ in range(99):
            pending = pending[[tuple(t) in known
                               for t in negatives[pending].tolist()]]
            if not pending.size:
                break
            corrupt(pending)
    samples = np.empty((2 * m, 3), dtype=np.int64)
    samples[0::2] = positives
    samples[1::2] = negatives
    labels = np.tile([1.0, 0.0], m)
    return samples, labels


def link_loss(scores, labels, params=(), feature_tensors=(),
              l2_coefficient=0.0):
    """Mean base-2 binary cross entropy plus L2 on the decoder side.

    The L2 term covers the regularized parameters (relation embeddings)
    and the given entity-feature tensors (the rows used in this batch).
    """
    loss = T.binary_cross_entropy_bits(scores, labels)
    if l2_coefficient:
        penalized = [p for p in params if p.regularized] + list(feature_tensors)
        loss = T.add(loss, T.l2_penalty(penalized, l2_coefficient))
    return loss
