"""Brute-force reference for the link-prediction report, and its laws.

Recomputes raw and filtered ranks of both sides of every test triple from
encoder output with plain numpy, independently of kgar's evaluation code,
so a faster ranking path in kgar can be checked against it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

TOLERANCE = 1e-9
CHUNK = 256  # queries per scoring GEMM


def complex_query_scores(feats, rel_re, rel_im, queries):
    """Scores of every candidate for each (fixed, relation, side) query.

    The ComplEx score of (s, r, o) is Re(<w_r, s, conj(o)>) with the first
    half of a feature row the real part. Rows of the result follow
    `queries`; columns are candidate entities.
    """
    half = feats.shape[1] // 2
    fixed = feats[queries[:, 0]]
    f_re, f_im = fixed[:, :half], fixed[:, half:]
    w_re, w_im = rel_re[queries[:, 1]], rel_im[queries[:, 1]]
    q_re = w_re * f_re - w_im * f_im
    q_im = w_re * f_im + w_im * f_re
    tail = queries[:, 2] == 1
    # tail side: Re(q * conj(o)); head side with q = w * conj(o): Re(s * q)
    q_re = np.where(tail[:, None], q_re, w_re * f_re + w_im * f_im)
    q_im = np.where(tail[:, None], q_im, w_im * f_re - w_re * f_im)
    sign = np.where(tail, 1.0, -1.0)[:, None]
    return np.hstack([q_re, sign * q_im]) @ feats.T


def ranks(feats, rel_re, rel_im, test, known):
    """(raw, filtered) rank arrays, head then tail query per test triple.

    Ties take the average rank; the filtered rank drops every other
    triple of `known` that the candidate would form.
    """
    heads, tails = defaultdict(set), defaultdict(set)
    for s, r, o in known:
        tails[(s, r)].add(o)
        heads[(o, r)].add(s)
    test = np.asarray(test, dtype=np.int64)
    # query rows: (fixed entity, relation, 1 for tail side), target entity
    queries = np.empty((2 * len(test), 3), dtype=np.int64)
    targets = np.empty(2 * len(test), dtype=np.int64)
    queries[0::2] = np.stack([test[:, 2], test[:, 1],
                              np.zeros(len(test), dtype=np.int64)], axis=1)
    targets[0::2] = test[:, 0]
    queries[1::2] = np.stack([test[:, 0], test[:, 1],
                              np.ones(len(test), dtype=np.int64)], axis=1)
    targets[1::2] = test[:, 2]
    raw = np.empty(len(queries))
    filtered = np.empty(len(queries))
    for lo in range(0, len(queries), CHUNK):
        block = complex_query_scores(feats, rel_re, rel_im,
                                     queries[lo:lo + CHUNK])
        for i, scores in enumerate(block):
            q = lo + i
            target = targets[q]
            t = scores[target]
            greater = np.count_nonzero(scores > t)
            equal = np.count_nonzero(scores == t) - 1
            raw[q] = 1.0 + greater + 0.5 * equal
            fixed, rel, tail_side = queries[q]
            other = (tails if tail_side else heads)[(fixed, rel)] - {target}
            if other:
                kept = scores[np.fromiter(other, dtype=np.int64)]
                greater -= np.count_nonzero(kept > t)
                equal -= np.count_nonzero(kept == t)
            filtered[q] = 1.0 + greater + 0.5 * equal
    return raw, filtered


def report(raw, filtered):
    return {"mrr_raw": float(np.mean(1.0 / raw)),
            "mrr_filtered": float(np.mean(1.0 / filtered)),
            "hits1": float(np.mean(filtered <= 1)),
            "hits3": float(np.mean(filtered <= 3)),
            "hits10": float(np.mean(filtered <= 10))}


def law_violations(rep):
    """Broken report laws: filtered >= raw MRR, hits@1 <= @3 <= @10."""
    broken = []
    if not rep["mrr_filtered"] >= rep["mrr_raw"]:
        broken.append("mrr_filtered < mrr_raw")
    if not 0.0 <= rep["hits1"] <= rep["hits3"] <= rep["hits10"] <= 1.0:
        broken.append("hits1 <= hits3 <= hits10 in [0, 1] fails")
    return broken


def mismatches(rep, expected):
    """Report keys that differ from the reference by more than TOLERANCE."""
    return [k for k, v in expected.items()
            if not abs(rep.get(k, np.nan) - v) <= TOLERANCE]
