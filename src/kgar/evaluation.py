"""Ranking protocol and metrics: raw/filtered MRR, Hits@K, accuracy.

Every test triple is ranked twice, once per corrupted side, against all
|V| candidate substitutions. Ties receive the average rank. The filtered
setting removes each substitution that would form a different known-true
triple; the test entity itself is never removed.

Ranking is 1-N: a query row (fixed entity, relation, side) asks for the
head (side 0) or the tail (side 1), and the scorer turns a chunk of
`_QUERY_CHUNK` rows into one (rows, |V|) score block. Raw ranks count
greater and equal scores per row; filtered ranks subtract the known
substitutions read from a `FilterIndex`. That is the package's one index
of known triples: its sorted triple keys also answer the membership test
of filtered negative sampling. A non-finite candidate or class score
raises NumericFailure instead of giving a metric: every comparison with
a NaN is false, so ranks and argmaxes taken over one mean nothing.
"""

from __future__ import annotations

import numpy as np

from .data import run_starts
from .tensor import NumericFailure

SETTINGS = ("raw", "filtered")
_QUERY_CHUNK = 256  # queries per score block (one GEMM)


class FilterIndex:
    """The known triples as sorted int64 keys, one array per query side.

    Built from an (n, 3) int64 array of (head, relation, tail) rows whose
    entity ids lie below `num_entities` (V) and relation ids below
    `num_relations` (R). A query (fixed entity, relation, side) asks for
    the head (side 0) or the tail (side 1); `keys[side]` holds each known
    triple once as (fixed·R + r)·V + candidate: (t·R + r)·V + h for side
    0, (h·R + r)·V + t for side 1. A query's known substitutions are the
    keys in [base, base + V), base = (fixed·R + r)·V, each key % V, so
    the ids of rows and queries looked up must lie in range too.
    """

    def __init__(self, triples, num_entities, num_relations):
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        if self.num_entities ** 2 * self.num_relations >= 2 ** 63:
            raise ValueError("triple keys overflow int64")
        heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        self.keys = []
        for fixed, cand in ((tails, heads), (heads, tails)):
            # keys are values: no tie order to keep, so a plain sort
            key = np.sort(self._key(fixed, rels, cand))
            self.keys.append(key[run_starts(key)])

    def _key(self, fixed, rel, cand):
        return (fixed * self.num_relations + rel) * self.num_entities + cand

    def contains(self, rows):
        """The (m,) mask of the rows of an (m, 3) id array that are known
        triples."""
        keys = self.keys[1]
        key = self._key(rows[:, 0], rows[:, 1], rows[:, 2])
        pos = np.searchsorted(keys, key)
        found = pos < keys.size
        found[found] = keys[pos[found]] == key[found]
        return found

    def known_others(self, queries, targets):
        """(row, candidate) pairs: each known candidate of each query row
        other than that row's target, in no particular order."""
        rows, cands = [], []
        for side in (0, 1):
            idx = np.flatnonzero(queries[:, 2] == side)
            base = self._key(queries[idx, 0], queries[idx, 1], 0)
            lo, hi = np.searchsorted(self.keys[side],
                                     [base, base + self.num_entities])
            count = hi - lo
            # position j of row i's range: lo[i] + j, for j < count[i]
            ends = np.cumsum(count)
            offsets = np.repeat(lo - ends + count, count)
            rows.append(np.repeat(idx, count))
            cands.append(self.keys[side][offsets + np.arange(count.sum())]
                         % self.num_entities)
        rows, cands = np.concatenate(rows), np.concatenate(cands)
        keep = cands != targets[rows]
        return rows[keep], cands[keep]


def _chunk_ranks(scores, targets, known_rows, known_cands):
    """Raw and filtered ranks of one score block's rows."""
    n = len(targets)
    t = scores[np.arange(n), targets]
    greater = np.count_nonzero(scores > t[:, None], axis=1)
    equal = np.count_nonzero(scores == t[:, None], axis=1) - 1
    raw = 1.0 + greater + 0.5 * equal
    kept = scores[known_rows, known_cands]
    t_kept = t[known_rows]
    greater = greater - np.bincount(known_rows, weights=kept > t_kept,
                                    minlength=n)
    equal = equal - np.bincount(known_rows, weights=kept == t_kept,
                                minlength=n)
    return raw, 1.0 + greater + 0.5 * equal


def evaluate_ranking(test, scorer, known):
    """(raw, filtered) rank arrays of both sides of every row of the (n, 3)
    int64 array `test`: query 2i ranks triple i's head, query 2i + 1 its
    tail.

    `scorer(queries)` maps an (q, 3) block of query rows to a (q, |V|)
    block of candidate scores; `known` is the FilterIndex of the positive
    set.
    """
    # head then tail query per triple: (fixed, relation, side), target
    queries = np.stack([test[:, [2, 0]].reshape(-1), np.repeat(test[:, 1], 2),
                        np.tile([0, 1], len(test))], axis=1)
    targets = test[:, [0, 2]].reshape(-1)
    raw = np.empty(len(queries))
    filtered = np.empty(len(queries))
    for lo in range(0, len(queries), _QUERY_CHUNK):
        block = slice(lo, lo + _QUERY_CHUNK)
        scores = np.asarray(scorer(queries[block]), dtype=np.float64)
        if not np.isfinite(scores).all():
            q = lo + int(np.argmin(np.isfinite(scores).all(axis=1)))
            raise NumericFailure(
                f"non-finite candidate score in query {q}, the "
                f"{('head', 'tail')[queries[q, 2]]} of test triple "
                f"{tuple(test[q // 2].tolist())}")
        rows, cands = known.known_others(queries[block], targets[block])
        raw[block], filtered[block] = _chunk_ranks(scores, targets[block],
                                                   rows, cands)
        # freed before the scorer builds the next block, so that one
        # block, not two, sets the high-water mark
        del scores
    return raw, filtered


def _ranks(results, setting):
    """One setting's ranks from an `evaluate_ranking` (raw, filtered) pair."""
    if setting not in SETTINGS:
        raise ValueError(f"setting must be one of {SETTINGS}, got {setting!r}")
    ranks = results[SETTINGS.index(setting)]
    if not len(ranks):
        raise ValueError("metrics of an empty result set are undefined")
    return ranks


def mrr(results, setting="filtered"):
    return float((1.0 / _ranks(results, setting)).mean())


def hits_at_k(results, k, setting="filtered"):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float((_ranks(results, setting) <= k).mean())


def classification_accuracy(scores, true_classes):
    """Percentage of rows whose argmax (lowest id on ties) is the label."""
    scores = np.asarray(scores)
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise NumericFailure(f"non-finite class scores in test row "
                             f"{int(np.argmin(finite))}")
    predictions = scores.argmax(axis=1)
    return float(100.0 * (predictions == np.asarray(true_classes)).mean())


# ---------------------------------------------------------------------------
# reports


def link_report(results, dataset):
    return {
        "task": "linkpred",
        "dataset": dataset,
        "mrr_raw": mrr(results, "raw"),
        "mrr_filtered": mrr(results, "filtered"),
        "hits1": hits_at_k(results, 1),
        "hits3": hits_at_k(results, 3),
        "hits10": hits_at_k(results, 10),
    }


def classify_report(accuracy, dataset):
    return {"task": "classify", "dataset": dataset, "accuracy": accuracy}


def report_csv(report):
    """Two CSV lines (header, values) for table aggregation."""
    keys = list(report)
    values = [f"{report[k]:.6f}" if isinstance(report[k], float)
              else str(report[k]) for k in keys]
    return ",".join(keys) + "\n" + ",".join(values) + "\n"
