"""Task heads: classification logits, ComplEx and DistMult triple scoring,
1-N candidate scoring for ranking, and negative sampling. The losses are
the generic tape ops `tensor.softmax_cross_entropy` and
`tensor.binary_cross_entropy_bits`; `training.train` adds the L2 term.

Entity features are the encoder output F. Relation embeddings are
decoder-owned parameters, independent of the encoder; a model holds one
decoder's, and the scorers tell which from them. Both decoders are
written in complex arithmetic (Trouillon et al., arXiv:1606.06357). For
ComplEx a D-wide row [re | im] holds D/2 complex numbers, and the relation
rows are rel_re + i rel_im. DistMult is the real special case: its rows
are used as they are, and conj changes nothing.

A triple (s, r, o) with entries S, W, O scores Re Σ W∘S∘conj(O). Its
gradients in the two entities are the query vectors: W∘S for the tail
and conj(W)∘O for the head. Training scores sampled triples with one
tape op (`score_triples`) that gathers its rows, converts only those,
and scatters the gradients back. Ranking uses no tape: `query_scorer`
builds each query's vector from the same two products and scores a
block of queries against all entities with one GEMM.

What lives how long in training: the op's batch-sized arrays (S, O, W,
conj(X) and the real rows its gathers and scatters pass through) live
for the whole run, in the one `ScoreBuffers` that `training.train`
makes and hands to every step. Each step makes new only its id
arrays, its (n, 1) scores and the gradients it scatters into, which
live as every gradient on the tape does.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, _grad, _record, _row_index, _tape


# ---------------------------------------------------------------------------
# classification


def classify_forward(feats, head, node_ids):
    """Class logits for the given nodes: F[ids] @ head."""
    return T.matmul(T.gather_rows(feats, np.asarray(node_ids)), head)


# ---------------------------------------------------------------------------
# triple scoring: training (one tape op) and 1-N ranking (no tape)


def _relations(params):
    """The model's relation-embedding parameters, in column order:
    DistMult's [rel_diag] when it has one, else ComplEx's [rel_re, rel_im]."""
    if params.rel_diag is not None:
        return [params.rel_diag]
    return [params.rel_re, params.rel_im]


def _entries(parts, ids):
    """Rows `ids` of a matrix given as its column parts: complex numbers
    from the [re, im] parts of ComplEx, the real rows of DistMult's one
    part. Only the gathered rows are converted."""
    if len(parts) == 1:
        return parts[0][ids]
    out = np.empty((len(ids), parts[0].shape[1]), np.complex128)
    out.real = parts[0][ids]
    out.imag = parts[1][ids]
    return out


def _parts(z):
    """The inverse of `_entries`: [Re z, Im z] if complex, else [z]."""
    return [z.real, z.imag] if np.iscomplexobj(z) else [z]


def _staged(rows, n, width):
    """The first n·width values of the flat float64 area `rows`, as a
    C-contiguous (n, width) matrix."""
    return rows[:n * width].reshape(n, width)


def _gather(mats, ids, out, rows):
    """Fill the entries `out` with rows `ids` (see `_entries`) of the
    matrix whose columns, side by side, are `mats`: the features [re | im]
    or DistMult's one matrix, or ComplEx's relation parts [re, im]. Each
    matrix's rows pass through the front of `rows`.

    np.take reads a `mat` that is not C-contiguous through a copy and, in
    its default mode="raise", writes through a buffer; the ids are checked
    before (`_row_index`), so mode="clip" clips nothing and takes no
    memory."""
    parts = _parts(out)
    targets = iter(parts)
    for mat in mats:
        staged = np.take(mat, ids, axis=0, mode="clip",
                         out=_staged(rows, len(ids), mat.shape[1]))
        for block in np.hsplit(staged, len(parts) // len(mats)):
            np.copyto(next(targets), block)


def _scatter(slot, ids, z, rows):
    """Add the entries z to the rows `ids` of a tensor's gradient (its
    `GradSlot`), in the tensor's real layout, which is built at the front
    of the flat float64 area `rows`: a complex z as its rows
    [Re z | Im z]."""
    parts = _parts(z)
    vals = _staged(rows, len(z), z.shape[1] * len(parts))
    for block, part in zip(np.hsplit(vals, len(parts)), parts):
        np.copyto(block, part)
    T.scatter_rows(_grad(slot), ids, vals)


def _conj_product(s, o, out):
    """x̄ = conj(S)∘O, the conjugate of X = S∘conj(O), into `out`."""
    np.conjugate(s, out=out)
    out *= o
    return out


class ScoreBuffers:
    """The batch-sized arrays of `score_triples`, kept from one call to
    the next: the entries S, O and W it gathers, the product conj(X), and
    `rows`, a flat float64 area of n·D values through which the gathers
    and the gradient scatters pass in the tensors' real layout. They are
    made on the first call, and again when the batch's size, the width or
    the decoder changes.

    A taped call's backward reads S, O and W, so its arrays are in use
    from its forward until its backward has run; another call with them
    before then, on the same tape or a later one, raises RuntimeError.
    An untaped call uses them only while it runs.
    """

    def __init__(self):
        self.s = self.o = self.w = self.x_bar = self.rows = None
        self.in_use = False

    def claim(self, shape, dtype):
        """(S, O, W, conj(X), rows) for entries of `shape` and `dtype`."""
        if self.in_use:
            raise RuntimeError("score_triples: its ScoreBuffers still hold "
                               "a score op whose backward has not run")
        if (self.s is None or self.s.shape != shape
                or self.s.dtype != dtype):
            self.s, self.o, self.w, self.x_bar = (
                np.empty(shape, dtype) for _ in range(4))
            self.rows = np.empty(self.s.view(np.float64).size)
        return self.s, self.o, self.w, self.x_bar, self.rows


def score_triples(params, feats, triples, buffers=None):
    """Scores (n, 1) of an (n, 3) id array of (head, relation, tail) rows,
    in a new array.

    One tape op: it gathers the head, tail and relation rows S, O, W as
    the entries of the model's decoder (see `_relations`) and scores
    Re Σ W∘X with X = S∘conj(O), taken as its conjugate. The backward
    reads S, O and W, recomputes conj(X) the same way, and scatters
    g·conj(W)∘O, g·W∘S and g·conj(X) into the gradients of `feats` and of
    the relation parameters. An id outside its range raises ShapeError.

    Every batch-sized array lives in `buffers`, a `ScoreBuffers` that a
    training run makes once and hands to each step's call (a call
    without one makes its own), so a run reuses the same memory; the
    scores and the gradients are new each step.
    """
    triples = np.asarray(triples)
    relations = _relations(params)
    heads, rels, tails = (
        _row_index(t, triples[:, k], "score_triples")
        for t, k in ((feats, 0), (relations[0], 1), (feats, 2)))
    buffers = ScoreBuffers() if buffers is None else buffers
    s, o, w, x_bar, rows = buffers.claim(
        (len(triples), relations[0].shape[1]),
        np.complex128 if len(relations) == 2 else np.float64)
    _gather([feats.values], heads, s, rows)
    _gather([feats.values], tails, o, rows)
    _gather([p.values for p in relations], rels, w, rows)
    # Re(w x) = Re w Re x_bar + Im w Im x_bar: one product of the float
    # views, in place, summed per row
    prod = _conj_product(s, o, x_bar).view(np.float64)
    prod *= w.view(np.float64)
    out = Tensor(prod.sum(axis=1, keepdims=True))
    sfeats, srels = feats.slot, [p.slot for p in relations]

    def bw(g):
        # conj(X) first: each gathered entry is read once more here, so the
        # products below overwrite them
        np.multiply(_conj_product(s, o, x_bar), g, out=x_bar)
        gw = np.multiply(w, g, out=w)
        _scatter(sfeats, tails, np.multiply(s, gw, out=s), rows)
        np.conjugate(gw, out=gw)
        _scatter(sfeats, heads, np.multiply(o, gw, out=o), rows)
        for slot, part in zip(srels, _parts(x_bar)):
            _scatter(slot, rels, part, rows)
        buffers.in_use = False

    buffers.in_use = _tape() is not None
    _record(out, bw)
    return out


def query_scorer(feats, params):
    """Bind a scorer of (q, 3) query rows to (q, |V|) candidate scores.

    A row (fixed, relation, side) asks for the head (side 0) of
    (?, relation, fixed) or the tail (side 1) of (fixed, relation, ?).
    Its query vector c is the score's gradient in the open entity (see
    `score_triples`): W∘S for a tail, conj(W)∘O for a head. A candidate
    row F scores Re Σ c∘conj(F) = <[Re c | Im c], F>, so a block of rows
    is scored against every entity by a single (q x D)(D x |V|) product.
    """
    feats_t = feats.T
    relations = [p.values for p in _relations(params)]
    parts = np.hsplit(feats, len(relations))

    def scorer(queries):
        w = _entries(relations, queries[:, 1])
        heads = queries[:, 2] == 0
        w[heads] = w[heads].conj()
        c = w * _entries(parts, queries[:, 0])
        return np.hstack(_parts(c)) @ feats_t

    return scorer


# ---------------------------------------------------------------------------
# negative sampling


def sample_negatives(positives, num_entities, rng, known=None):
    """1:1 corruption of an (m, 3) int64 array: each positive is followed
    by one negative.

    The corrupted side is a fair coin; the replacement entity is uniform
    over the ids different from the original. With a `known` membership
    test, which maps an (m, 3) id array to the (m,) mask of its known
    rows (see `evaluation.FilterIndex.contains`), corruptions that are
    known triples are resampled (bounded retries).
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
            pending = pending[known(negatives[pending])]
            if not pending.size:
                break
            corrupt(pending)
    samples = np.empty((2 * m, 3), dtype=np.int64)
    samples[0::2] = positives
    samples[1::2] = negatives
    labels = np.tile([1.0, 0.0], m)
    return samples, labels
