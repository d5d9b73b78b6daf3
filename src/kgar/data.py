"""Triple loading and the array graph store.

A graph is one read-only (n, 3) int64 array of (head, relation, tail)
rows. Message passing reads it through two cached DirectionPlans:
"forward" updates each tail from its heads, "backward" each head from its
tails. Sums that need no relation weight read it through one cached
Incidence: both ends of every triple as node, neighbor and triple
columns, sorted by node. Every array
that enters the model has its ids range-checked by `check_ids` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

DIRECTIONS = ("forward", "backward")


class DataError(ValueError):
    """Malformed input file or unresolvable identifier."""


def load_triples(path, width=3):
    """Read `width` string columns of tab-separated rows from a TSV file:
    (heads, relations, tails) of triples, or (entities, classes) of labels
    at width 2.

    Blank lines and `#` comments are skipped; line order is preserved.
    A byte-order mark opening the file is no part of the first name.
    """
    lines, rows = _read_rows(path)
    tabs = list(map(str.count, rows, repeat("\t")))
    if tabs.count(width - 1) != len(tabs):
        bad = next(k for k, n in enumerate(tabs) if n != width - 1)
        # an equal earlier line would be a malformed row too
        raise DataError(f"{path}:{lines.index(rows[bad]) + 1}: expected "
                        f"{width} tab-separated fields, got {tabs[bad] + 1}")
    fields = "\t".join(rows).split("\t") if rows else []
    return tuple(fields[i::width] for i in range(width))


def _read_rows(path):
    """The file's lines and, in order, those that are rows: neither blank
    nor a `#` comment."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})")
    return lines, [line for line in lines if (text := line.lstrip())
                   and text[0] != "#"]


def find_empty_field(path):
    """Raise DataError at the first row of a TSV file that `load_triples`
    reads with an empty field; return if there is none.

    The slow search behind a cheap check of the distinct names read.
    """
    lines, rows = _read_rows(path)
    for row in rows:
        fields = row.split("\t")
        if "" in fields:
            raise DataError(f"{path}:{lines.index(row) + 1}: field "
                            f"{fields.index('') + 1} is empty")


def row_line(path, index):
    """The line number of row `index` (from 0) of a file `load_triples`
    read: the slow lookup behind an error message."""
    return [n for n, line in enumerate(_read_rows(path)[0], start=1)
            if (text := line.lstrip()) and text[0] != "#"][index]


def stable_order(*keys):
    """The permutation `np.lexsort(keys)` returns for equal-length
    non-negative integer keys: the last key is primary, and ties keep their
    input order.

    Least-significant-digit radix passes over 16-bit digits, each a stable
    `np.argsort` of uint16 values, which numpy runs as a radix sort.
    """
    size = len(keys[0])
    order = np.arange(size)
    for key in keys:
        if len(key) != size:
            raise ValueError(f"keys of unequal length: {len(key)} and {size}")
        if not size:
            continue
        if key.min() < 0:
            raise ValueError("stable_order sorts non-negative keys only")
        for shift in range(0, int(key.max()).bit_length(), 16):
            digit = (key[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
    return order


def run_starts(*keys):
    """First position of each run of equal rows in equal-length arrays
    read as columns, sorted so that equal rows are adjacent: position 0
    and every position where some key changes (none for empty arrays)."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(first)


def check_ids(rows, limits, source):
    """Raise DataError at the first row of an (n, k) id array holding an id
    outside [0, limit) for its column's limit."""
    bad = ((rows < 0) | (rows >= np.asarray(limits))).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"{source}: row {k + 1} {tuple(rows[k].tolist())} "
                        f"has an id outside [0, limit) for limits "
                        f"{tuple(limits)}")


@dataclass
class DirectionPlan:
    """Edges of one direction sorted by (relation, updated-node).

    src[k] is the neighbor supplying features, dst[k] the node being
    updated. Edges with equal relation are contiguous
    (rel_starts[r]:rel_starts[r+1]); within that, runs of equal dst form
    the attention groups whose first positions are seg_starts. The sort is
    stable, so edges inside a group keep their triple-file order. Plan edge
    k is triple row order[k].
    """
    src: np.ndarray
    dst: np.ndarray
    rel_starts: np.ndarray
    seg_starts: np.ndarray
    order: np.ndarray


def _build_plan(src, dst, rel, num_relations):
    order = stable_order(dst, rel)  # rel major, dst minor
    s, d, r = src[order], dst[order], rel[order]
    rel_starts = np.searchsorted(r, np.arange(num_relations + 1))
    return DirectionPlan(src=s, dst=d, rel_starts=rel_starts,
                         seg_starts=run_starts(r, d), order=order)


@dataclass
class Incidence:
    """Both ends of every triple as three columns, sorted by node.

    Each triple k = (h, r, t) appears twice: at node t with neighbor h,
    and at node h with neighbor t (a self-loop twice at one node).
    Position j holds neighbor nbr[j] of node node[j] through triple
    triple[j]. The sort is stable, so a node's run lists the triples it is
    the tail of, then those it is the head of, each in triple-file order.
    """
    node: np.ndarray
    nbr: np.ndarray
    triple: np.ndarray


def _build_incidence(heads, tails):
    node = np.concatenate([tails, heads])
    order = stable_order(node)
    return Incidence(node=node[order],
                     nbr=np.concatenate([heads, tails])[order],
                     triple=order % max(heads.size, 1))


class KnowledgeGraph:
    """Immutable triple store: one (n, 3) id array, its two edge plans and
    its incidence list, each built on first use and cached.

    `triples` is an (n, 3) array or any iterable of (head, relation, tail)
    id triples, empty included. heads/rels/tails are column views.
    """

    def __init__(self, triples, num_entities, num_relations):
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        if not isinstance(triples, np.ndarray):
            triples = list(triples)
        arr = np.array(triples, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DataError(f"triples must be (head, relation, tail) rows, "
                            f"got an array of shape {arr.shape}")
        check_ids(arr, (self.num_entities, self.num_relations,
                        self.num_entities), "triples")
        arr.flags.writeable = False
        self._triples = arr
        self.heads, self.rels, self.tails = arr.T
        self._plans = {}
        self._incidence = None

    def triple_array(self):
        """The triples as the read-only (n, 3) int64 array of rows."""
        return self._triples

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

    def incidence(self):
        """The cached Incidence list of both ends of every triple."""
        if self._incidence is None:
            self._incidence = _build_incidence(self.heads, self.tails)
        return self._incidence


@dataclass
class LabelSet:
    """Labeled entity ids, their class ids, and the number of classes."""
    entities: np.ndarray
    classes: np.ndarray
    num_classes: int
