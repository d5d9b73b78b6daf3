"""Loader, vocabulary, graph-array, direction-plan, relation-drop, dedup
and label contracts."""

import os
import re

import numpy as np
import pytest

import preprocess_reference as reference
from kgar import data as D
from kgar import datasets, decoders, evaluation, training
from kgar.config import resolve_config


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# load_triples / vocabulary


def test_load_triples_order_and_comments(tmp_path):
    path = write(tmp_path, "t.tsv", "a\tr\tb\n\n# comment\nb\tr\tc\n")
    assert D.load_triples(path) == (["a", "b"], ["r", "r"], ["b", "c"])


def test_load_triples_empty_file(tmp_path):
    assert D.load_triples(write(tmp_path, "e.tsv", "")) == ([], [], [])


def test_load_triples_malformed_names_line(tmp_path):
    path = write(tmp_path, "bad.tsv", "a\tr\tb\na\tb\n")
    with pytest.raises(D.DataError, match=":2"):
        D.load_triples(path)


def test_load_triples_missing_file(tmp_path):
    with pytest.raises(OSError):
        D.load_triples(str(tmp_path / "nope.tsv"))


def linkpred_dir(tmp_path, train, valid="", test=""):
    for name, text in (("train", train), ("valid", valid), ("test", test)):
        write(tmp_path, f"{name}.tsv", text)
    return str(tmp_path)


# every kind of line the reader skips, CRLF and lone CR line ends, names
# with inner and outer spaces, and a last row without a newline
AWKWARD = ("# header\r\na\tr\tb\r\n\n   \n\t\n  # indented\n"
           "\u3000\n\x85\x0b\x0c\n\u2003# em-space comment\n"
           "  c\tq r\t d \rb\tr\ta\nb\tr\tc")


def test_preprocess_matches_the_line_reference(tmp_path):
    (tmp_path / "train.tsv").write_bytes(AWKWARD.encode("utf-8"))
    write(tmp_path, "valid.tsv", "# v\nc\tr\tz\n\n")
    write(tmp_path, "test.tsv", "z\tq r\ta")
    d = str(tmp_path)
    processed = datasets.preprocess(d)
    entities, relations, splits = reference.id_map(d)
    assert processed["entities"] == entities
    assert "  c" in entities and " d " in entities
    assert processed["relations"] == relations
    for split, rows in splits.items():
        got = processed["splits"][split]
        assert got.dtype == np.int64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, rows)


def test_malformed_row_after_comments_names_its_line(tmp_path):
    text = AWKWARD.replace("\nb\tr\tc", "\nb\tr\n# after\nb\tr\tc\tx")
    path = tmp_path / "t.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(D.DataError) as want:
        reference.read_rows(str(path))
    with pytest.raises(D.DataError) as got:
        D.load_triples(str(path))
    assert str(got.value) == str(want.value)
    assert f"{path}:12: expected 3 tab-separated fields, got 2" == \
        str(got.value)


def bundle_bytes(dataset_dir):
    out = os.path.join(dataset_dir, "bundle")
    datasets.write_bundle(out, datasets.preprocess(dataset_dir))
    return {name: open(os.path.join(out, name), "rb").read()
            for name in sorted(os.listdir(out))}


def test_byte_order_mark_is_no_part_of_a_name(tmp_path):
    files = {"train.tsv": "a\tr\tb\nb\tr\ta\nc\tr\ta\n",
             "labels_train.tsv": "a\tx\n", "labels_test.tsv": "c\ty\n"}
    bundles = []
    for bom in ("", "\ufeff"):
        d = tmp_path / repr(bom) / "d"
        d.mkdir(parents=True)
        for name, text in files.items():
            (d / name).write_text(bom + text, encoding="utf-8")
        bundles.append(bundle_bytes(str(d)))
    assert bundles[1] == bundles[0]
    assert bundles[0]["entities.tsv"] == b"0\ta\n1\tb\n2\tc\n"


def test_build_vocab_first_appearance(tmp_path):
    processed = datasets.preprocess(
        linkpred_dir(tmp_path, "a\tr\tb\nb\tr\tc\n"))
    assert processed["entities"] == ["a", "b", "c"]
    assert processed["relations"] == ["r"]


def test_vocab_roundtrip_deterministic(tmp_path):
    d = linkpred_dir(tmp_path, "x\tp\ty\ny\tq\tz\nz\tp\tx\n")
    v1 = datasets.preprocess(d)
    v2 = datasets.preprocess(d)
    assert (v1["entities"], v1["relations"]) == (v2["entities"],
                                                 v2["relations"])


# ---------------------------------------------------------------------------
# neighbors through the direction plans


def edge_relations(plan):
    """The relation of each plan edge, read off the relation runs."""
    return np.repeat(np.arange(plan.rel_starts.size - 1),
                     np.diff(plan.rel_starts))


def incident(graph, direction, node):
    """(neighbor, relation) of a node's edges in one direction, plan order."""
    p = graph.plan(direction)
    at = p.dst == node
    return list(zip(p.src[at].tolist(), edge_relations(p)[at].tolist()))


def test_single_triple_indexes():
    g = D.KnowledgeGraph([(0, 0, 1)], 2, 1)
    assert incident(g, "forward", 1) == [(0, 0)]
    assert incident(g, "backward", 0) == [(1, 0)]
    assert incident(g, "forward", 0) == [] and incident(g, "backward", 1) == []


def test_second_incident_edge_gets_ordinal_two():
    # (4512, 52, 546) is the second in-edge of node 546
    triples = [(7, 3, 546), (4512, 52, 546)]
    g = D.KnowledgeGraph(triples, 5000, 60)
    assert incident(g, "forward", 546)[1] == (4512, 52)


def test_star_graph_ordinals():
    center = 0
    triples = [(k, 0, center) for k in range(1, 6)]
    g = D.KnowledgeGraph(triples, 6, 1)
    # one attention group, neighbors in triple-file order
    assert incident(g, "forward", center) == [(k, 0) for k in range(1, 6)]
    assert g.plan("forward").seg_starts.tolist() == [0]
    assert g.plan("forward").src.size == 5 == g.plan("backward").src.size


def test_index_out_of_range_entity():
    # entity past the end, negative entity, relation past the end
    for bad in ((0, 0, 9), (-1, 0, 1), (0, 1, 1)):
        with pytest.raises(D.DataError, match=re.escape(f"row 2 {bad}")):
            D.KnowledgeGraph([(0, 0, 1), bad], 2, 1)


def test_shuffled_triples_same_multiset():
    rng = np.random.default_rng(0)
    triples = [(int(rng.integers(0, 10)), int(rng.integers(0, 3)),
                int(rng.integers(0, 10))) for _ in range(40)]
    g1 = D.KnowledgeGraph(triples, 10, 3)
    shuffled = list(triples)
    rng.shuffle(shuffled)
    g2 = D.KnowledgeGraph(shuffled, 10, 3)
    for direction in D.DIRECTIONS:
        for node in range(10):
            assert sorted(incident(g1, direction, node)) == \
                sorted(incident(g2, direction, node))


def test_graph_is_one_read_only_array():
    triples = np.array([(0, 1, 2), (2, 0, 1)])
    g = D.KnowledgeGraph(triples, 3, 2)
    arr = g.triple_array()
    np.testing.assert_array_equal(arr, triples)
    assert arr.dtype == np.int64 and arr.flags.c_contiguous
    assert not arr.flags.writeable and len(arr) == 2
    for column in (g.heads, g.rels, g.tails):
        assert np.shares_memory(column, arr)
    assert g.tails.tolist() == [2, 1]
    assert D.KnowledgeGraph([], 3, 2).triple_array().shape == (0, 3)
    with pytest.raises(D.DataError, match="shape"):
        D.KnowledgeGraph([(0, 1)], 3, 2)


# ---------------------------------------------------------------------------
# relation blocks and groups of the plans


def test_worked_sparse_example():
    # node 546's in-edge (4512, 52, 546) is relation 52's whole block
    triples = [(7, 3, 546), (4512, 52, 546)]
    g = D.KnowledgeGraph(triples, num_entities=5000, num_relations=60)
    p = g.plan("forward")
    lo, hi = p.rel_starts[52], p.rel_starts[53]
    assert (p.src[lo:hi].tolist(), p.dst[lo:hi].tolist()) == ([4512], [546])


def test_isolated_node_zero_columns():
    g = D.KnowledgeGraph([(0, 0, 1)], 3, 1)
    assert incident(g, "forward", 2) == [] == incident(g, "backward", 2)


def test_three_in_edges_column_set():
    triples = [(1, 0, 0), (2, 0, 0), (3, 1, 0)]
    g = D.KnowledgeGraph(triples, 4, 2)
    assert incident(g, "forward", 0) == [(1, 0), (2, 0), (3, 1)]
    # relation 0 and relation 1 in-edges form separate attention groups
    assert g.plan("forward").seg_starts.tolist() == [0, 2]


def test_sparse_column_count_matches_index_length():
    rng = np.random.default_rng(1)
    triples = [(int(rng.integers(0, 8)), int(rng.integers(0, 3)),
                int(rng.integers(0, 8))) for _ in range(30)]
    g = D.KnowledgeGraph(triples, 8, 3)
    for node in range(8):
        assert len(incident(g, "forward", node)) == \
            sum(t == node for _, _, t in triples)
        assert len(incident(g, "backward", node)) == \
            sum(h == node for h, _, _ in triples)


# ---------------------------------------------------------------------------
# relation drop / dedup in preprocessing


def toy_dir(tmp_path):
    return linkpred_dir(tmp_path, "a\tp\tb\nb\tq\tc\nc\tp\ta\n")


def test_drop_relations_removes_and_recompacts(tmp_path):
    d = toy_dir(tmp_path)
    kept = datasets.preprocess(d, drop_names=("p",))
    assert kept["splits"]["train"].tolist() == [[1, 0, 2]]
    assert kept["manifest"]["num_relations"] == 1
    assert kept["relations"] == ["q"]
    # entity ids preserved
    assert kept["entities"] == datasets.preprocess(d)["entities"]
    assert kept["manifest"]["num_entities"] == 3


def test_drop_relations_empty_set_identity(tmp_path):
    processed = datasets.preprocess(toy_dir(tmp_path), drop_names=())
    assert processed["splits"]["train"].tolist() == [[0, 0, 1], [1, 1, 2],
                                                [2, 0, 0]]
    assert processed["relations"] == ["p", "q"]


def test_drop_relations_unknown_name_warns(tmp_path):
    processed = datasets.preprocess(toy_dir(tmp_path),
                                    drop_names=("missing_rel",))
    assert processed["manifest"]["unmatched_drop_names"] == ["missing_rel"]
    assert processed["manifest"]["counts"]["train"] == 3


def test_drop_then_no_unused_relation_id(tmp_path):
    processed = datasets.preprocess(toy_dir(tmp_path), drop_names=("q",))
    used = {r for _, r, _ in processed["splits"]["train"]}
    assert used == set(range(processed["manifest"]["num_relations"]))


def test_dedup_triples(tmp_path):
    d = linkpred_dir(tmp_path, "a\tr\tb\na\tr\tb\nb\tr\ta\na\tr\tb\n",
                     valid="b\tr\ta\nb\tr\ta\n", test="a\tr\tb\n")
    splits = datasets.preprocess(d, dedup=True)["splits"]
    # first occurrences, in order, separately per split
    assert splits["train"].tolist() == [[0, 0, 1], [1, 0, 0]]
    assert splits["valid"].tolist() == [[1, 0, 0]]
    assert splits["test"].tolist() == [[0, 0, 1]]
    assert len(datasets.preprocess(d)["splits"]["train"]) == 4


# ---------------------------------------------------------------------------
# stable_order


def tied_keys(rng, count, high, size=600):
    """`count` keys of `size` values drawn from a few spread over
    [0, high), 0 and high - 1 among them."""
    values = np.append(rng.integers(0, high, 4), [0, high - 1])
    return [rng.choice(values, size) for _ in range(count)]


@pytest.mark.parametrize("high", [5, 2**16 + 3, 2**32 + 9, 2**45])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_stable_order_is_lexsort(count, high):
    keys = tied_keys(np.random.default_rng(count), count, high)
    got, want = D.stable_order(*keys), np.lexsort(keys)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("keys", [[[]], [[], []], [[7]], [[3], [2**40]]])
def test_stable_order_of_empty_and_single(keys):
    keys = [np.array(key, dtype=np.int64) for key in keys]
    got, want = D.stable_order(*keys), np.lexsort(keys)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_stable_order_rejects_negative_and_unequal_keys():
    with pytest.raises(ValueError, match="non-negative"):
        D.stable_order(np.array([3, 0]), np.array([1, -1]))
    with pytest.raises(ValueError, match="unequal length"):
        D.stable_order(np.array([3, 0]), np.array([1, 2, 0]))


# ---------------------------------------------------------------------------
# labels


def classify_bundle(tmp_path, labels_train, labels_test):
    write(tmp_path, "train.tsv", "a\tr\tb\nb\tr\tc\n")
    write(tmp_path, "labels_train.tsv", labels_train)
    write(tmp_path, "labels_test.tsv", labels_test)
    out = str(tmp_path / "bundle")
    datasets.write_bundle(out, datasets.preprocess(str(tmp_path)))
    return datasets.load_bundle(out)


def test_load_labels_basic(tmp_path):
    labels = classify_bundle(tmp_path, "a\t0\nb\t1\n", "c\t0\n").labels
    assert labels["train"].num_classes == 2
    assert labels["train"].entities.tolist() == [0, 1]
    assert labels["train"].classes.tolist() == [0, 1]


def test_load_labels_shared_class_map(tmp_path):
    bundle = classify_bundle(tmp_path, "a\tx\nb\ty\n", "c\ty\n")
    labels = bundle.labels
    assert labels["test"].entities.tolist() == [2]
    assert labels["test"].classes.tolist() == [bundle.class_names.index("y")]


def test_load_labels_skip_comments_and_blank_lines_like_triples(tmp_path):
    labels = classify_bundle(tmp_path, "a\t0\n  # note\n \t \nb\t1\n",
                             "# header\nc\t0\n\n").labels
    assert labels["train"].entities.tolist() == [0, 1]
    assert labels["test"].entities.tolist() == [2]


def test_load_labels_unknown_entity_names_line(tmp_path):
    with pytest.raises(D.DataError, match="labels_train.tsv.*'zz'"):
        classify_bundle(tmp_path, "a\t0\nzz\t1\n", "c\t0\n")


# ---------------------------------------------------------------------------
# direction plans


def test_plan_orders_by_relation_then_dst():
    triples = [(0, 1, 2), (1, 0, 2), (3, 0, 2), (0, 0, 1), (2, 1, 1)]
    g = D.KnowledgeGraph(triples, 4, 2)
    p = g.plan("forward")
    rel = edge_relations(p)
    # each relation's run holds exactly its edges, dst nondecreasing
    for r in range(2):
        lo, hi = p.rel_starts[r], p.rel_starts[r + 1]
        assert sorted(zip(p.src[lo:hi].tolist(), p.dst[lo:hi].tolist())) == \
            sorted((h, t) for h, rr, t in triples if rr == r)
        assert list(p.dst[lo:hi]) == sorted(p.dst[lo:hi])
    # every (rel, dst) change is a segment start
    starts = set(p.seg_starts.tolist())
    for k in range(1, p.src.size):
        changed = rel[k] != rel[k - 1] or p.dst[k] != p.dst[k - 1]
        assert (k in starts) == changed
    assert 0 in starts


def test_plan_stable_within_group():
    # two in-edges of node 1 with the same relation keep file order
    triples = [(5, 0, 1), (3, 0, 1)]
    g = D.KnowledgeGraph(triples, 6, 1)
    p = g.plan("forward")
    assert list(p.src) == [5, 3]


def test_backward_plan_swaps_roles():
    g = D.KnowledgeGraph([(0, 0, 1)], 2, 1)
    p = g.plan("backward")
    assert p.src[0] == 1 and p.dst[0] == 0


def test_plan_empty_graph():
    g = D.KnowledgeGraph([], 3, 2)
    p = g.plan("forward")
    assert p.src.size == 0
    assert p.seg_starts.size == 0
    assert list(p.rel_starts) == [0, 0, 0]


@pytest.mark.parametrize("triples", [
    [(0, 1, 2), (1, 0, 2), (3, 0, 2), (0, 0, 1), (2, 1, 1), (3, 0, 2)], []],
    ids=["toy", "empty"])
def test_plan_order_maps_edges_to_triple_rows(triples):
    # plan edge k is triple row order[k]: the forward plan reads heads into
    # tails, the backward plan the other way round
    g = D.KnowledgeGraph(triples, 4, 2)
    for direction, src, dst in (("forward", g.heads, g.tails),
                                ("backward", g.tails, g.heads)):
        p = g.plan(direction)
        np.testing.assert_array_equal(src[p.order], p.src)
        np.testing.assert_array_equal(dst[p.order], p.dst)
        np.testing.assert_array_equal(np.sort(p.order),
                                      np.arange(len(triples)))
        np.testing.assert_array_equal(g.rels[p.order], edge_relations(p))


def test_known_triples(monkeypatch):
    # filtered negative sampling checks corruptions against the training
    # triples, with the membership test of the FilterIndex of the graph's
    # array
    seen = []
    sample = decoders.sample_negatives

    def spy(*args, **kwargs):
        seen.append(kwargs["known"])
        return sample(*args, **kwargs)

    monkeypatch.setattr(decoders, "sample_negatives", spy)
    g = D.KnowledgeGraph([(0, 0, 1), (1, 0, 0)], 2, 1)
    config = resolve_config("linkpred", cli_values=dict(
        embed_dim=4, num_blocks=2, num_layers=1, iterations=1,
        batch_size=2, filtered_negatives=True))
    training.train(g, {}, config, "linkpred", seed=0)
    assert seen[0].__func__ is evaluation.FilterIndex.contains
    np.testing.assert_array_equal(
        seen[0](np.array([(0, 0, 1), (1, 0, 1), (1, 0, 0)])),
        [True, False, True])
