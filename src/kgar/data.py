"""Triple/label ingestion and graph index construction.

Graphs are stored as integer-ID triples with two directional neighbor
indexes. "Forward" neighbors of a node are the heads of edges pointing at
it (the node is the tail); "backward" neighbors are the tails of edges it
points at. Edge ordinals count a node's incident edges per direction in
triple-file order, starting at 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DIRECTIONS = ("forward", "backward")


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class DataError(ValueError):
    """Malformed input file or unresolvable identifier."""


def load_triples(path, format="tsv"):
    """Read raw string triples from a TSV file.

    Blank lines and `#` comments are skipped; line order is preserved.
    """
    if format != "tsv":
        raise ValueError(f"unsupported triple format {format!r}")
    raw = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}")
            raw.append((parts[0], parts[1], parts[2]))
    return raw


def build_vocab(raw_triples):
    """Assign contiguous IDs in first-appearance order (head, then tail)."""
    entities = {}
    relations = {}
    for h, r, t in raw_triples:
        if h not in entities:
            entities[h] = len(entities)
        if r not in relations:
            relations[r] = len(relations)
        if t not in entities:
            entities[t] = len(entities)
    return entities, relations


def dedup_triples(triples):
    """Drop exact duplicate triples, keeping first occurrences in order."""
    seen = set()
    out = []
    for t in triples:
        key = (t[0], t[1], t[2])
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def build_neighbor_indexes(triples, num_entities):
    """Per-entity in/out adjacency lists of (neighbor, relation, ordinal)."""
    in_index = [[] for _ in range(num_entities)]
    out_index = [[] for _ in range(num_entities)]
    for h, r, t in triples:
        if not (0 <= h < num_entities and 0 <= t < num_entities):
            raise DataError(f"entity id out of range in triple ({h},{r},{t})")
        in_index[t].append((h, r, len(in_index[t]) + 1))
        out_index[h].append((t, r, len(out_index[h]) + 1))
    return in_index, out_index


@dataclass
class RelationSparseMatrix:
    """One node's incident edges as a (|V| x degree) sparse pattern.

    Entry (row, col, value) marks that the node's col-th incident edge in
    the given direction connects it to entity `row` via relation `value`.
    Columns are 1-based edge ordinals.
    """
    owner: int
    direction: str
    entries: list
    num_rows: int
    num_cols: int


@dataclass
class DirectionPlan:
    """Edges of one direction sorted by (relation, updated-node).

    src[k] is the neighbor supplying features, dst[k] the node being
    updated. Edges with equal relation are contiguous
    (rel_starts[r]:rel_starts[r+1]); within that, runs of equal dst form
    the attention groups whose first positions are seg_starts. The sort is
    stable, so edges inside a group keep their triple-file order.
    """
    src: np.ndarray
    dst: np.ndarray
    rel: np.ndarray
    rel_starts: np.ndarray
    seg_starts: np.ndarray

    @property
    def num_edges(self):
        return self.src.size


def _build_plan(src, dst, rel, num_relations):
    order = np.lexsort((dst, rel))  # stable: rel major, dst minor
    s, d, r = src[order], dst[order], rel[order]
    rel_starts = np.searchsorted(r, np.arange(num_relations + 1))
    if r.size:
        change = np.empty(r.size, dtype=bool)
        change[0] = True
        change[1:] = (r[1:] != r[:-1]) | (d[1:] != d[:-1])
        seg_starts = np.flatnonzero(change)
    else:
        seg_starts = np.zeros(0, dtype=np.int64)
    return DirectionPlan(src=s, dst=d, rel=r, rel_starts=rel_starts,
                         seg_starts=seg_starts)


class KnowledgeGraph:
    """Immutable triple store with directional neighbor indexes."""

    def __init__(self, triples, num_entities, num_relations,
                 entity_vocab=None, relation_vocab=None):
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.triples = [Triple(int(h), int(r), int(t)) for h, r, t in triples]
        for h, r, t in self.triples:
            if not 0 <= r < self.num_relations:
                raise DataError(f"relation id out of range in triple ({h},{r},{t})")
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.in_index, self.out_index = build_neighbor_indexes(
            self.triples, self.num_entities)
        if self.triples:
            arr = np.array(self.triples, dtype=np.int64)
        else:
            arr = np.zeros((0, 3), dtype=np.int64)
        self.heads = arr[:, 0]
        self.rels = arr[:, 1]
        self.tails = arr[:, 2]
        self._plans = {}
        self._known = None

    @classmethod
    def from_raw(cls, raw_triples, entity_vocab=None, relation_vocab=None,
                 dedup=False):
        if entity_vocab is None or relation_vocab is None:
            entity_vocab, relation_vocab = build_vocab(raw_triples)
        ids = []
        for h, r, t in raw_triples:
            try:
                ids.append((entity_vocab[h], relation_vocab[r], entity_vocab[t]))
            except KeyError as exc:
                raise DataError(f"name {exc.args[0]!r} missing from vocabulary")
        if dedup:
            ids = dedup_triples(ids)
        return cls(ids, len(entity_vocab), len(relation_vocab),
                   entity_vocab, relation_vocab)

    @property
    def num_triples(self):
        return len(self.triples)

    def triple_array(self):
        """The triples as an (n, 3) int64 array of (head, rel, tail) rows."""
        return np.stack([self.heads, self.rels, self.tails], axis=1)

    def plan(self, direction):
        """Cached DirectionPlan for 'forward' (in-edges) or 'backward'."""
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, "
                             f"got {direction!r}")
        if direction not in self._plans:
            if direction == "forward":
                src, dst = self.heads, self.tails
            else:
                src, dst = self.tails, self.heads
            self._plans[direction] = _build_plan(
                src, dst, self.rels, self.num_relations)
        return self._plans[direction]

    def known_triples(self):
        """Frozen set of (head, relation, tail) for filtered ranking."""
        if self._known is None:
            self._known = frozenset((h, r, t) for h, r, t in self.triples)
        return self._known


def build_relation_sparse(graph, node, direction):
    """Sparse incidence matrix of one node: rows are entities, columns are
    the node's 1-based edge ordinals, values are relation IDs."""
    if not 0 <= node < graph.num_entities:
        raise DataError(f"node {node} out of range")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, "
                         f"got {direction!r}")
    index = graph.in_index if direction == "forward" else graph.out_index
    entries = [(nbr, ordinal, rel) for nbr, rel, ordinal in index[node]]
    return RelationSparseMatrix(owner=node, direction=direction,
                                entries=entries, num_rows=graph.num_entities,
                                num_cols=len(entries))


def drop_relations(graph, relation_names):
    """New graph without triples of the named relations.

    Relation IDs are recompacted (first-appearance order of the survivors'
    names in the old vocab); entity IDs and vocab are preserved so label
    references stay valid. Unknown names warn instead of failing.
    """
    if graph.relation_vocab is None:
        raise ValueError("drop_relations requires a graph with a relation vocabulary")
    drop_ids = set()
    for name in relation_names:
        rid = graph.relation_vocab.get(name)
        if rid is None:
            warnings.warn(f"relation {name!r} not in vocabulary, ignoring")
        else:
            drop_ids.add(rid)
    keep = [(name, rid) for name, rid in
            sorted(graph.relation_vocab.items(), key=lambda kv: kv[1])
            if rid not in drop_ids]
    new_vocab = {name: new_id for new_id, (name, _) in enumerate(keep)}
    remap = {old: new_vocab[name] for name, old in graph.relation_vocab.items()
             if old not in drop_ids}
    triples = [(h, remap[r], t) for h, r, t in graph.triples
               if r not in drop_ids]
    return KnowledgeGraph(triples, graph.num_entities, len(new_vocab),
                          entity_vocab=graph.entity_vocab,
                          relation_vocab=new_vocab)


@dataclass
class LabelSet:
    """Entity-id to class-id map with the class-name vocabulary."""
    pairs: dict
    class_to_id: dict
    entities: np.ndarray = field(default=None)
    classes: np.ndarray = field(default=None)

    @property
    def num_classes(self):
        return len(self.class_to_id)

    def __post_init__(self):
        if self.entities is None:
            self.entities = np.fromiter(self.pairs.keys(), dtype=np.int64,
                                        count=len(self.pairs))
            self.classes = np.array([self.pairs[e] for e in self.entities],
                                    dtype=np.int64)


def load_labels(path, entity_vocab, class_to_id=None):
    """Read `entity<TAB>class-name` lines into a LabelSet.

    Pass the class map of a previously loaded split to keep class IDs
    consistent across train/test label files.
    """
    class_to_id = dict(class_to_id) if class_to_id else {}
    pairs = {}
    ents, classes = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(
                    f"{path}:{lineno}: expected 2 tab-separated fields, "
                    f"got {len(parts)}")
            name, cls = parts
            if name not in entity_vocab:
                raise DataError(f"{path}:{lineno}: unknown entity {name!r}")
            if cls not in class_to_id:
                class_to_id[cls] = len(class_to_id)
            eid = entity_vocab[name]
            pairs[eid] = class_to_id[cls]
            ents.append(eid)
            classes.append(class_to_id[cls])
    return LabelSet(pairs=pairs, class_to_id=class_to_id,
                    entities=np.array(ents, dtype=np.int64),
                    classes=np.array(classes, dtype=np.int64))
