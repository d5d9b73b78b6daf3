"""Named dataset profiles and preprocessed bundle I/O.

A dataset directory holds raw TSV files: link-prediction datasets carry
`train.tsv` / `valid.tsv` / `test.tsv`; classification datasets carry the
full graph in `train.tsv` plus `labels_train.tsv` / `labels_test.tsv`
(an optional `labels_valid.tsv` adds a validation metric during
training). `preprocess` turns a directory into a deterministic bundle:
TSV name files, one `.npy` int64 id array per split, and a manifest;
re-running on unchanged input reproduces identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .data import (DataError, KnowledgeGraph, LabelSet, check_ids,
                   find_empty_field, load_triples, row_line)
from .model import TASKS

DATA_DIR_ENV = "KGAR_DATA_DIR"
BUNDLE_DIR = "bundle"
MANIFEST = "manifest.json"
# the splits a manifest must count for each task; a classification bundle
# may also count labels_valid, a validation split
NEEDED_SPLITS = {"linkpred": ("train", "valid", "test"),
                 "classify": ("train", "labels_train", "labels_test")}

# relations whose triples leak the classification target (local names;
# matched against full IRIs by suffix), per the usual protocol for these
# benchmarks
DROP_RELATIONS = {
    "aifb": ("employs", "affiliation"),
    "mutag": ("isMutagenic",),
    "bgs": ("hasLithogenesis",),
    "am": ("objectCategory", "material"),
}

# per-dataset config overrides; the synthetic graph is tiny, so it trains
# with a narrow one-layer encoder, large batches, and the adam variant
DATASET_DEFAULTS = {
    "synthetic": dict(embed_dim=100, num_layers=1, batch_size=512,
                      iterations=3000, l2=0.0, dropout_attention=0.0,
                      dropout_conv=0.0, optimizer="adam", eval_interval=500),
}


def dataset_name(dataset_dir):
    return os.path.basename(os.path.normpath(dataset_dir)).lower()


def dataset_defaults(name):
    return dict(DATASET_DEFAULTS.get(name, {}))


def default_drop(name):
    return tuple(DROP_RELATIONS.get(name, ()))


def resolve_dataset_dir(spec, env=None):
    """Interpret a --dataset value as a path, else under $KGAR_DATA_DIR."""
    env = os.environ if env is None else env
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    root = env.get(DATA_DIR_ENV)
    if root:
        candidate = os.path.join(root, spec)
        if os.path.isdir(candidate):
            return os.path.abspath(candidate)
        raise DataError(f"dataset directory not found: {spec!r} "
                        f"(checked {os.path.abspath(spec)} and {candidate})")
    raise DataError(f"dataset directory not found: {spec!r} "
                    f"(set {DATA_DIR_ENV} or pass a path)")


def resolve_drop_names(relation_names, drop_names):
    """Match drop names against relation names by suffix.

    A drop name hits a relation when it equals the full name or its local
    part after the last '#' or '/'. Returns (matched full names in vocab
    order, drop names that hit nothing).
    """
    matched, unmatched = [], []
    for name in drop_names:
        hits = [rel for rel in relation_names
                if rel == name or rel.endswith("#" + name)
                or rel.endswith("/" + name)]
        if hits:
            matched.extend(hits)
        else:
            unmatched.append(name)
    return matched, unmatched


def detect_task(dataset_dir):
    if os.path.exists(os.path.join(dataset_dir, "labels_train.tsv")):
        return "classify"
    if os.path.exists(os.path.join(dataset_dir, "train.tsv")):
        return "linkpred"
    raise DataError(f"{dataset_dir}: neither labels_train.tsv nor train.tsv "
                    "present; not a dataset directory")


def _require(dataset_dir, filename):
    path = os.path.join(dataset_dir, filename)
    if not os.path.exists(path):
        raise DataError(f"{path}: file not found")
    return path


@dataclass
class Bundle:
    """A preprocessed dataset: id-mapped splits plus shared vocabulary."""

    task: str
    manifest: dict
    entity_names: list
    relation_names: list
    graph: KnowledgeGraph = None
    splits: dict = field(default_factory=dict)  # linkpred id arrays
    labels: dict = field(default_factory=dict)  # classify LabelSets
    class_names: list = field(default_factory=list)

    @property
    def num_entities(self):
        return self.manifest["num_entities"]

    @property
    def num_relations(self):
        return self.manifest["num_relations"]


def _vocab(names):
    """Ids of the distinct names, numbered by first appearance."""
    return {name: i for i, name in enumerate(dict.fromkeys(names))}


def _ids(vocab, names):
    """The int64 array of each name's id."""
    return np.fromiter(map(vocab.__getitem__, names), dtype=np.int64,
                       count=len(names))


def preprocess(dataset_dir, drop_names=None, dedup=False):
    """Read raw files, apply the drop list, and id-map everything."""
    task = detect_task(dataset_dir)
    raw = {}
    if task == "linkpred":
        for split in ("train", "valid", "test"):
            raw[split] = load_triples(_require(dataset_dir, f"{split}.tsv"))
    else:
        raw["train"] = load_triples(_require(dataset_dir, "train.tsv"))

    # ids by first appearance: train, then valid, then test; h, r, t
    entity_names = {}
    for split, (heads, _, tails) in raw.items():
        names = entity_names[split] = [None] * (2 * len(heads))
        names[::2], names[1::2] = heads, tails
    entity_vocab = _vocab(chain.from_iterable(entity_names.values()))
    relation_vocab = _vocab(chain.from_iterable(
        rels for _, rels, _ in raw.values()))
    if "" in entity_vocab or "" in relation_vocab:
        for split in raw:
            find_empty_field(os.path.join(dataset_dir, f"{split}.tsv"))
    id_splits = {}
    for split, (_, rels, _) in raw.items():
        ends = _ids(entity_vocab, entity_names[split])
        rows = np.empty((len(rels), 3), dtype=np.int64)
        rows[:, 0], rows[:, 2] = ends[::2], ends[1::2]
        rows[:, 1] = _ids(relation_vocab, rels)
        id_splits[split] = rows

    if drop_names is None:
        drop_names = default_drop(dataset_name(dataset_dir))
    dropped, unmatched = resolve_drop_names(list(relation_vocab), drop_names)
    dropped_set = set(dropped)
    # recompact relation ids in original order; entity ids never change
    relations = [r for r in relation_vocab if r not in dropped_set]
    kept = np.array([r not in dropped_set for r in relation_vocab],
                    dtype=bool)
    new_relation_id = np.cumsum(kept) - 1
    for split, rows in id_splits.items():
        rows = rows[kept[rows[:, 1]]]
        rows[:, 1] = new_relation_id[rows[:, 1]]
        if dedup:  # first occurrences, in file order
            _, first = np.unique(rows, axis=0, return_index=True)
            rows = rows[np.sort(first)]
        id_splits[split] = rows

    labels = {}
    class_vocab = {}
    labelled = {}  # entity id -> (path, row) of its one label
    if task == "classify":
        for part in ("train", "valid", "test"):
            path = os.path.join(dataset_dir, f"labels_{part}.tsv")
            if part != "valid":
                _require(dataset_dir, f"labels_{part}.tsv")
            elif not os.path.exists(path):
                continue
            entities, classes = load_triples(path, width=2)
            if "" in entities or "" in classes:  # label files are short
                find_empty_field(path)
            pairs = []
            for row, (ent, cls) in enumerate(zip(entities, classes)):
                if ent not in entity_vocab:
                    raise DataError(f"{path}: entity {ent!r} absent from the "
                                    "graph")
                first = labelled.setdefault(entity_vocab[ent], (path, row))
                if first != (path, row):
                    raise DataError(f"{path}:{row_line(path, row)}: entity "
                                    f"{ent!r} is labelled again, first at "
                                    f"{first[0]}:{row_line(*first)}")
                class_vocab.setdefault(cls, len(class_vocab))
                pairs.append((entity_vocab[ent], class_vocab[cls]))
            labels[part] = np.array(pairs, dtype=np.int64).reshape(-1, 2)

    manifest = {
        "dataset": dataset_name(dataset_dir),
        "task": task,
        "num_entities": len(entity_vocab),
        "num_relations": len(relations),
        "num_relations_raw": len(relation_vocab),
        "dropped_relations": sorted(dropped_set),
        "unmatched_drop_names": sorted(unmatched),
        "counts": {split: len(rows) for split, rows in id_splits.items()},
    }
    if task == "classify":
        manifest["num_classes"] = len(class_vocab)
        manifest["counts"].update(
            {f"labels_{part}": len(rows) for part, rows in labels.items()})

    return {
        "manifest": manifest,
        "entities": list(entity_vocab),
        "relations": relations,
        "classes": list(class_vocab),
        "splits": id_splits,
        "labels": labels,
    }


def _write_names(path, names):
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            fh.write(f"{i}\t{name}\n")


def write_bundle(bundle_dir, processed):
    """Write a preprocessed dataset; byte-deterministic for identical input.

    Any old manifest is removed first and the new one renamed into place
    last, so a write that fails part-way leaves a bundle that `load_bundle`
    reports as not found instead of one that mixes old and new files. No
    fsync: the bundle is a cache that `preprocess` rebuilds.
    """
    os.makedirs(bundle_dir, exist_ok=True)
    manifest_path = os.path.join(bundle_dir, MANIFEST)
    if os.path.exists(manifest_path):
        os.unlink(manifest_path)
    _write_names(os.path.join(bundle_dir, "entities.tsv"),
                 processed["entities"])
    _write_names(os.path.join(bundle_dir, "relations.tsv"),
                 processed["relations"])
    if processed["classes"]:
        _write_names(os.path.join(bundle_dir, "classes.tsv"),
                     processed["classes"])
    for split, rows in processed["splits"].items():
        np.save(os.path.join(bundle_dir, f"triples_{split}.npy"), rows,
                allow_pickle=False)
    for part, rows in processed["labels"].items():
        np.save(os.path.join(bundle_dir, f"labels_{part}.npy"), rows,
                allow_pickle=False)
    tmp = f"{manifest_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(processed["manifest"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, manifest_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return bundle_dir


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_ids(path, width, count):
    """An id file as the (count, width) int64 array that `write_bundle`
    saved. Its .npy header is checked against them and the file's length
    before the one read of the data, which allocates what the header
    states."""
    if not os.path.exists(path):
        raise DataError(f"{path}: file not found; the bundle predates .npy "
                        "id files or is incomplete, so rerun `kgar "
                        "preprocess` on the dataset directory")
    with open(path, "rb") as fh:  # the .npy format only, never pickles
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise ValueError(f"format version {version}")
            shape, fortran, dtype = _NPY_HEADERS[version](fh)
        except ValueError as exc:
            raise DataError(f"{path}: not a readable .npy id array ({exc})")
        if not (dtype == np.int64 and len(shape) == 2 and shape[1] == width):
            raise DataError(f"{path}: expected an (n, {width}) int64 array, "
                            f"got {dtype} of shape {shape}")
        if shape[0] != count:
            raise DataError(f"{path}: {shape[0]} rows, but the manifest "
                            f"counts {count}")
        end = fh.tell() + 8 * count * width
        size = os.fstat(fh.fileno()).st_size
        if end != size:
            raise DataError(f"{path}: not a readable .npy id array (its "
                            f"header states {end} bytes, the file has {size})")
        rows = np.fromfile(fh, dtype=np.int64, count=count * width)
    return rows.reshape(shape, order="F" if fortran else "C")


def _read_names(path, count):
    names = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                idx, _, name = line.rstrip("\n").partition("\t")
                if idx != str(lineno - 1):
                    raise DataError(f"{path}:{lineno}: ids must be "
                                    "consecutive")
                names.append(name)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})")
    if len(names) != count:
        raise DataError(f"{path}: {len(names)} names, but the manifest "
                        f"counts {count}")
    return names


def _is_count(value):
    return type(value) is int and value >= 0


def _check_manifest(path, manifest):
    """DataError naming the key unless `manifest` states a task, its sizes
    and the row count of every split the task needs."""
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: a manifest is a JSON object")
    task = manifest.get("task")
    if task not in TASKS:
        raise DataError(f"{path}: task must be one of {TASKS}, got {task!r}")
    classes = ("num_classes",) if task == "classify" else ()
    for key in ("num_entities", "num_relations") + classes:
        if not _is_count(manifest.get(key)):
            raise DataError(f"{path}: {key} must be a non-negative int, got "
                            f"{manifest.get(key)!r}")
    counts = manifest.get("counts")
    if not isinstance(counts, dict):
        raise DataError(f"{path}: counts must be an object, got {counts!r}")
    for split in NEEDED_SPLITS[task] + tuple(counts):
        if not _is_count(counts.get(split)):
            raise DataError(f"{path}: counts.{split} must be a non-negative "
                            f"int, got {counts.get(split)!r}")


def load_bundle(bundle_dir):
    """Rehydrate a Bundle; the graph holds the training triples only."""
    manifest_path = os.path.join(bundle_dir, MANIFEST)
    if not os.path.exists(manifest_path):
        raise DataError(f"{manifest_path}: bundle not found; run `kgar "
                        "preprocess` on the dataset directory first")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{manifest_path}: {exc}")
    _check_manifest(manifest_path, manifest)
    task = manifest["task"]
    entities = _read_names(os.path.join(bundle_dir, "entities.tsv"),
                           manifest["num_entities"])
    relations = _read_names(os.path.join(bundle_dir, "relations.tsv"),
                            manifest["num_relations"])
    bundle = Bundle(task=task, manifest=manifest, entity_names=entities,
                    relation_names=relations)

    counts = manifest["counts"]
    limits = (bundle.num_entities, bundle.num_relations, bundle.num_entities)
    for split in ("train", "valid", "test"):
        if split in counts:
            path = os.path.join(bundle_dir, f"triples_{split}.npy")
            rows = _read_ids(path, 3, counts[split])
            check_ids(rows, limits, path)
            bundle.splits[split] = rows
    bundle.graph = KnowledgeGraph(bundle.splits.pop("train"),
                                  bundle.num_entities, bundle.num_relations)

    if task == "classify":
        bundle.class_names = _read_names(
            os.path.join(bundle_dir, "classes.tsv"), manifest["num_classes"])
        num_classes = len(bundle.class_names)
        labelled = np.zeros(bundle.num_entities, dtype=bool)
        for part in ("train", "valid", "test"):
            if f"labels_{part}" in counts:
                path = os.path.join(bundle_dir, f"labels_{part}.npy")
                rows = _read_ids(path, 2, counts[f"labels_{part}"])
                check_ids(rows, (bundle.num_entities, num_classes), path)
                for k, entity in enumerate(rows[:, 0].tolist()):
                    if labelled[entity]:
                        raise DataError(f"{path}: row {k + 1} labels entity "
                                        f"{entity} again")
                    labelled[entity] = True
                bundle.labels[part] = LabelSet(
                    entities=rows[:, 0].copy(), classes=rows[:, 1].copy(),
                    num_classes=num_classes)
    return bundle
