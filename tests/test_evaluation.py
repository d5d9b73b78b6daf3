"""Ranking and metric laws, checked against brute-force recomputation."""

import tracemalloc

import numpy as np
import pytest

from kgar import evaluation as ev


def static_scorer(scores):
    arr = np.asarray(scores, dtype=np.float64)
    return lambda queries: np.tile(arr, (len(queries), 1))


def filter_index(known, num_entities=20, num_relations=1):
    """The FilterIndex of a collection of (head, relation, tail) tuples; the
    default ids cover the single-relation tests here."""
    return ev.FilterIndex(np.array(list(known), dtype=np.int64).reshape(-1, 3),
                          num_entities, num_relations)


def rank_one(triple, side, scorer, known):
    """One triple's (raw, filtered) ranks on one side, through the batched
    path."""
    raw, filtered = ev.evaluate_ranking(np.array([triple]), scorer,
                                        filter_index(known))
    query = ("head", "tail").index(side)
    return raw[query], filtered[query]


def brute_force_rank(scores, target, removed=()):
    """Independent rank computation by explicit comparison loops."""
    t = scores[target]
    rank = 1.0
    for c, sc in enumerate(scores):
        if c == target or c in removed:
            continue
        if sc > t:
            rank += 1.0
        elif sc == t:
            rank += 0.5
    return rank


# ---------------------------------------------------------------------------
# single-query ranks


def test_unique_top_score_rank_one():
    scores = [0.1, 0.9, 0.3]
    raw, filtered = rank_one((0, 0, 1), "tail", static_scorer(scores), set())
    assert raw == 1.0 and filtered == 1.0


def test_tie_policy_arithmetic():
    # target 0.5 against {0.9, 0.5, 0.1}: 1 + 1 strictly greater + 0.5 tie
    scores = [0.5, 0.9, 0.5, 0.1]
    raw, _ = rank_one((0, 0, 1), "head", static_scorer(scores), set())
    assert raw == 2.5


def test_known_competitor_filtered_out():
    # candidate 1 outranks the target 2 but forms a known positive
    scores = [0.0, 0.9, 0.5]
    known = {(0, 0, 1)}
    raw, filtered = rank_one((0, 0, 2), "tail", static_scorer(scores), known)
    assert raw == 2.0
    assert filtered == 1.0


def test_self_exclusion_guard():
    scores = [0.0, 0.9, 0.5]
    base = rank_one((0, 0, 2), "tail", static_scorer(scores), {(0, 0, 1)})
    plus_self = rank_one((0, 0, 2), "tail", static_scorer(scores),
                         {(0, 0, 1), (0, 0, 2)})
    assert plus_self[1] == base[1]


def test_filtered_never_exceeds_raw_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        scores = rng.integers(0, 4, n).astype(float)  # deliberate ties
        known = {(int(rng.integers(0, n)), 0, int(rng.integers(0, n)))
                 for _ in range(n)}
        triple = (int(rng.integers(0, n)), 0, int(rng.integers(0, n)))
        for side in ("head", "tail"):
            raw, filtered = rank_one(triple, side, static_scorer(scores),
                                     known)
            assert filtered <= raw


def test_monotone_tie_policy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        scores = rng.integers(0, 5, 12).astype(float)
        target = int(rng.integers(0, 12))
        before = brute_force_rank(scores, target)
        bumped = scores.copy()
        bumped[target] += 1e-9
        after = brute_force_rank(bumped, target)
        assert after <= before


def test_rank_matches_brute_force_with_filtering():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(3, 20))
        scores = rng.integers(0, 5, n).astype(float)
        triple = (int(rng.integers(0, n)), 0, int(rng.integers(0, n)))
        known = {(triple[0], 0, int(rng.integers(0, n))) for _ in range(3)}
        raw, filtered = rank_one(triple, "tail", static_scorer(scores), known)
        removed = {o for (s, r, o) in known if (s, r) == (triple[0], 0)
                   and o != triple[2]}
        assert raw == brute_force_rank(scores, triple[2])
        assert filtered == brute_force_rank(scores, triple[2], removed)


def test_batched_ranks_match_brute_force():
    rng = np.random.default_rng(4)
    v, num_rel, n = 12, 3, 200  # 400 queries cross the 256-query chunk
    # relation ids num_rel and num_rel + 1 never enter the index
    test = np.stack([rng.integers(0, v, n), rng.integers(0, num_rel + 2, n),
                     rng.integers(0, v, n)], axis=1)
    extra = [(int(rng.integers(v)), int(rng.integers(num_rel)),
              int(rng.integers(v))) for _ in range(150)]
    # known holds test triples themselves and duplicate triples
    known = [tuple(t) for t in test if t[1] < num_rel][:60] + extra \
        + extra[:20]
    # integer scores per (relation, fixed entity, side): deliberate ties
    table = rng.integers(0, 4, (num_rel + 2, v, 2, v)).astype(float)

    def scorer(queries):
        return table[queries[:, 1], queries[:, 0], queries[:, 2]]

    for known_set in (known, []):
        raw, filtered = ev.evaluate_ranking(
            test, scorer, filter_index(known_set, v, num_rel + 2))
        assert raw.shape == filtered.shape == (2 * n,)
        for i in range(2 * n):
            # query 2k ranks triple k's head, query 2k + 1 its tail
            s, r, o = (int(x) for x in test[i // 2])
            side = ("head", "tail")[i % 2]
            fixed, target = (o, s) if side == "head" else (s, o)
            scores = table[r, fixed, i % 2]
            removed = {h if side == "head" else t for h, rr, t in known_set
                       if rr == r and (t if side == "head" else h) == fixed}
            assert raw[i] == brute_force_rank(scores, target)
            assert filtered[i] == brute_force_rank(scores, target, removed)


def test_filter_index_key_ranges_end_at_their_neighbours():
    # known triples at entities 0 and V - 1 and relations 0 and R - 1,
    # with neighbouring (fixed, relation) pairs known too: a range that
    # ends one key early drops candidate V - 1, one that ends late picks
    # up the next pair's candidate 0
    v, num_rel = 6, 3
    ends, rels = (0, 1, v - 2, v - 1), (0, num_rel - 1)
    known = {(a, r, b) for a in ends for r in rels for b in ends}
    index = filter_index(known, v, num_rel)
    queries = np.array([(f, r, side) for f in range(v)
                        for r in range(num_rel) for side in (0, 1)])
    targets = queries[:, 0] % 3
    got = set(zip(*(a.tolist() for a in index.known_others(queries,
                                                           targets))))
    expected = set()
    for i, (f, r, side) in enumerate(queries.tolist()):
        for h, rr, t in known:
            fixed, cand = (t, h) if side == 0 else (h, t)
            if (fixed, rr) == (f, r) and cand != targets[i]:
                expected.add((i, cand))
    assert got == expected
    rows = np.array([(h, r, t) for h in range(v) for r in range(num_rel)
                     for t in range(v)])
    np.testing.assert_array_equal(index.contains(rows),
                                  [tuple(t) in known for t in rows.tolist()])


def test_ranking_holds_one_score_block_at_a_time():
    # 800 queries make four blocks; a block still alive while the scorer
    # builds the next one would put the peak near two blocks
    rng = np.random.default_rng(6)
    v, n = 4000, 400
    test = np.stack([rng.integers(0, v, n), np.zeros(n, dtype=np.int64),
                     rng.integers(0, v, n)], axis=1)
    known = filter_index(map(tuple, test), v)

    def scorer(queries):
        return rng.random((len(queries), v))

    block = ev._QUERY_CHUNK * v * 8
    tracemalloc.start()
    try:
        ev.evaluate_ranking(test, scorer, known)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_names_its_query(bad):
    # 300 triples: query 523 is the tail of triple 261, in the third block
    rng = np.random.default_rng(5)
    test = np.stack([rng.integers(0, 9, 300), np.zeros(300, dtype=np.int64),
                     rng.integers(0, 9, 300)], axis=1)
    table = rng.standard_normal((600, 9))
    table[523, 4] = table[590, 0] = bad
    offset = 0

    def scorer(queries):
        nonlocal offset
        offset += len(queries)
        return table[offset - len(queries):offset]

    with pytest.raises(ev.NumericFailure,
                       match=rf"query 523, the tail of test triple "
                             rf"\({test[261, 0]}, 0, {test[261, 2]}\)"):
        ev.evaluate_ranking(test, scorer, filter_index([]))


# ---------------------------------------------------------------------------
# metrics


def make_results(rank_pairs):
    """The (raw, filtered) rank arrays of `evaluate_ranking`."""
    return (np.array([raw for raw, _ in rank_pairs], dtype=float),
            np.array([filt for _, filt in rank_pairs], dtype=float))


def test_mrr_all_ones():
    assert ev.mrr(make_results([(1, 1)] * 5), "raw") == 1.0


def test_mrr_hand_arithmetic():
    results = make_results([(1, 1), (2, 2), (4, 4)])
    assert ev.mrr(results, "raw") == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_mrr_empty_rejected():
    with pytest.raises(ValueError):
        ev.mrr(make_results([]), "raw")


def test_hits_arithmetic_and_half_ranks():
    results = make_results([(1, 1), (2, 2), (4, 4)])
    assert ev.hits_at_k(results, 3, "raw") == pytest.approx(2 / 3)
    assert ev.hits_at_k(results, 4, "raw") == 1.0
    half = make_results([(2.5, 2.5)])
    assert ev.hits_at_k(half, 2, "raw") == 0.0
    assert ev.hits_at_k(half, 3, "raw") == 1.0  # 2.5 <= 3


def test_hits_k_validation():
    with pytest.raises(ValueError):
        ev.hits_at_k(make_results([(1, 1)]), 0)


def test_classification_accuracy():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    # last row ties -> argmax picks class 0
    assert ev.classification_accuracy(probs, [0, 1, 1, 0]) == 75.0
    assert ev.classification_accuracy(probs[:1], [0]) == 100.0


def test_classification_accuracy_refuses_non_finite_probabilities():
    # a softmax of overflowed logits gives NaN rows, whose argmax is the
    # first NaN column
    probs = np.array([[0.9, 0.1], [np.nan, np.nan], [0.6, 0.4]])
    with pytest.raises(ev.NumericFailure, match="test row 1"):
        ev.classification_accuracy(probs, [0, 0, 0])


# ---------------------------------------------------------------------------
# randomized metric-law sweep (small version; the full 1000-set sweep runs
# in the acceptance suite)


def random_result_set(rng):
    n = int(rng.integers(1, 30))
    pairs = []
    for _ in range(n):
        raw = float(rng.integers(1, 20))
        filt = float(rng.integers(1, int(raw) + 1))
        pairs.append((raw, filt))
    return make_results(pairs)


def test_metric_laws_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(200):
        results = random_result_set(rng)
        assert ev.mrr(results, "filtered") >= ev.mrr(results, "raw")
        for k in (1, 3, 10):
            assert ev.hits_at_k(results, k, "filtered") >= \
                ev.hits_at_k(results, k, "raw")
        assert ev.hits_at_k(results, 1) <= ev.hits_at_k(results, 3) \
            <= ev.hits_at_k(results, 10)


def test_report_formats():
    results = make_results([(1, 1), (2, 1)])
    rep = ev.link_report(results, "toy")
    assert set(rep) == {"task", "dataset", "mrr_raw", "mrr_filtered",
                        "hits1", "hits3", "hits10"}
    assert rep["mrr_filtered"] >= rep["mrr_raw"]
    csv = ev.report_csv(rep)
    header, row = csv.strip().split("\n")
    assert header.startswith("task,dataset,mrr_raw")
    assert row.startswith("linkpred,toy,")
    crep = ev.classify_report(98.1, "aifb")
    assert ev.report_csv(crep).strip().split("\n")[1] == "classify,aifb,98.100000"
