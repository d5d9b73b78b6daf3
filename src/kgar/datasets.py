"""Named dataset profiles and preprocessed bundle I/O.

A dataset directory holds raw TSV files: link-prediction datasets carry
`train.tsv` / `valid.tsv` / `test.tsv`; classification datasets carry the
full graph in `train.tsv` plus `labels_train.tsv` / `labels_test.tsv`
(an optional `labels_valid.tsv` adds a validation metric during
training). `preprocess` turns a directory into a deterministic bundle of
vocab files, id-mapped splits, and a manifest; re-running on unchanged
input reproduces identical bytes.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, KnowledgeGraph, LabelSet, check_ids, load_triples

DATA_DIR_ENV = "KGAR_DATA_DIR"
BUNDLE_DIR = "bundle"
MANIFEST = "manifest.json"

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


def _load_label_rows(path):
    """Raw (entity-name, class-name) rows; format mirrors triple TSVs."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated "
                                f"fields, got {len(parts)}")
            rows.append((parts[0], parts[1]))
    return rows


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


def preprocess(dataset_dir, drop_names=None, dedup=False):
    """Read raw files, apply the drop list, and id-map everything."""
    task = detect_task(dataset_dir)
    raw = {}
    if task == "linkpred":
        for split in ("train", "valid", "test"):
            raw[split] = load_triples(_require(dataset_dir, f"{split}.tsv"))
    else:
        raw["train"] = load_triples(_require(dataset_dir, "train.tsv"))

    ordered = [t for split in ("train", "valid", "test") if split in raw
               for t in raw[split]]
    entity_vocab, relation_vocab = {}, {}
    for h, r, t in ordered:
        entity_vocab.setdefault(h, len(entity_vocab))
        relation_vocab.setdefault(r, len(relation_vocab))
        entity_vocab.setdefault(t, len(entity_vocab))
    raw_num_relations = len(relation_vocab)

    if drop_names is None:
        drop_names = default_drop(dataset_name(dataset_dir))
    dropped, unmatched = resolve_drop_names(list(relation_vocab), drop_names)
    dropped_set = set(dropped)
    # recompact relation ids in original order; entity ids never change
    kept_relations = {r: i for i, r in enumerate(
        n for n in relation_vocab if n not in dropped_set)}

    id_splits = {}
    for split, triples in raw.items():
        rows = [(entity_vocab[h], kept_relations[r], entity_vocab[t])
                for h, r, t in triples if r not in dropped_set]
        if dedup:
            seen, unique = set(), []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        id_splits[split] = rows

    labels = {}
    class_vocab = {}
    if task == "classify":
        for part in ("train", "valid", "test"):
            path = os.path.join(dataset_dir, f"labels_{part}.tsv")
            if part != "valid":
                _require(dataset_dir, f"labels_{part}.tsv")
            elif not os.path.exists(path):
                continue
            rows = _load_label_rows(path)
            pairs = []
            for ent, cls in rows:
                if ent not in entity_vocab:
                    raise DataError(f"{path}: entity {ent!r} absent from the "
                                    "graph")
                class_vocab.setdefault(cls, len(class_vocab))
                pairs.append((entity_vocab[ent], class_vocab[cls]))
            labels[part] = pairs

    manifest = {
        "dataset": dataset_name(dataset_dir),
        "task": task,
        "num_entities": len(entity_vocab),
        "num_relations": len(kept_relations),
        "num_relations_raw": raw_num_relations,
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
        "relations": list(kept_relations),
        "classes": list(class_vocab),
        "splits": id_splits,
        "labels": labels,
    }


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def write_bundle(bundle_dir, processed):
    """Write a preprocessed dataset; byte-deterministic for identical input."""
    os.makedirs(bundle_dir, exist_ok=True)
    with open(os.path.join(bundle_dir, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(processed["manifest"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_rows(os.path.join(bundle_dir, "entities.tsv"),
                enumerate(processed["entities"]))
    _write_rows(os.path.join(bundle_dir, "relations.tsv"),
                enumerate(processed["relations"]))
    if processed["classes"]:
        _write_rows(os.path.join(bundle_dir, "classes.tsv"),
                    enumerate(processed["classes"]))
    for split, rows in processed["splits"].items():
        _write_rows(os.path.join(bundle_dir, f"triples_{split}.tsv"), rows)
    for part, rows in processed["labels"].items():
        _write_rows(os.path.join(bundle_dir, f"labels_{part}.tsv"), rows)
    return bundle_dir


def _read_ids(path, width, count):
    """An id file as an (n, width) int64 array holding exactly `count` rows.

    An empty file is a valid empty split; an empty line is a DataError, so
    row k of the array is line k of the file.
    """
    # np.loadtxt skips empty lines, so find the first one beforehand
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    empty = ("\n" + text).find("\n\n")  # where the empty line starts
    if empty >= 0:
        lineno = text.count("\n", 0, empty) + 1
        raise DataError(f"{path}: line {lineno} is empty")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            rows = np.loadtxt(path, dtype=np.int64, delimiter="\t",
                              comments=None, ndmin=2, encoding="utf-8")
    except ValueError as exc:
        raise DataError(f"{path}: {_non_integer_field(path) or exc}")
    if rows.size == 0:
        rows = rows.reshape(0, width)
    if rows.shape[1] != width:
        raise DataError(f"{path}: expected {width} tab-separated ids per "
                        f"line, got {rows.shape[1]}")
    if rows.shape[0] != count:
        raise DataError(f"{path}: {rows.shape[0]} rows, but the manifest "
                        f"counts {count}")
    return rows


def _non_integer_field(path):
    """Where an id file holds a field that is not an integer, counting lines
    and columns from 1; None if every field is one. Read only after
    `np.loadtxt` has failed, whose own message counts rows from 0."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue  # an empty line stops the load before np.loadtxt
            for column, field in enumerate(line.rstrip("\n").split("\t"),
                                           start=1):
                try:
                    int(field)
                except ValueError:
                    return (f"line {lineno}, column {column}: {field!r} is "
                            "not an integer id")
    return None


def _read_names(path):
    names = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            idx, _, name = line.rstrip("\n").partition("\t")
            if idx != str(lineno - 1):
                raise DataError(f"{path}:{lineno}: ids must be consecutive")
            names.append(name)
    return names


def load_bundle(bundle_dir):
    """Rehydrate a Bundle; the graph holds the training triples only."""
    manifest_path = os.path.join(bundle_dir, MANIFEST)
    if not os.path.exists(manifest_path):
        raise DataError(f"{manifest_path}: bundle not found; run `kgar "
                        "preprocess` on the dataset directory first")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: {exc}")
    required = ("task", "num_entities", "num_relations", "counts")
    if not (isinstance(manifest, dict) and all(k in manifest
                                               for k in required)):
        raise DataError(f"{manifest_path}: a manifest needs the keys "
                        f"{', '.join(required)}")
    task = manifest["task"]
    entities = _read_names(os.path.join(bundle_dir, "entities.tsv"))
    relations = _read_names(os.path.join(bundle_dir, "relations.tsv"))
    bundle = Bundle(task=task, manifest=manifest, entity_names=entities,
                    relation_names=relations)

    counts = manifest["counts"]
    limits = (bundle.num_entities, bundle.num_relations, bundle.num_entities)
    for split in ("train", "valid", "test"):
        if split in counts:
            path = os.path.join(bundle_dir, f"triples_{split}.tsv")
            rows = _read_ids(path, 3, counts[split])
            check_ids(rows, limits, path)
            bundle.splits[split] = rows
    bundle.graph = KnowledgeGraph(bundle.splits.pop("train"),
                                  bundle.num_entities, bundle.num_relations)

    if task == "classify":
        bundle.class_names = _read_names(
            os.path.join(bundle_dir, "classes.tsv"))
        class_to_id = {n: i for i, n in enumerate(bundle.class_names)}
        for part in ("train", "valid", "test"):
            if f"labels_{part}" in counts:
                path = os.path.join(bundle_dir, f"labels_{part}.tsv")
                rows = _read_ids(path, 2, counts[f"labels_{part}"])
                check_ids(rows, (bundle.num_entities, len(class_to_id)), path)
                # a relabeled entity keeps its first position, last class
                pairs = dict(rows.tolist())
                bundle.labels[part] = LabelSet(
                    entities=np.array(list(pairs), dtype=np.int64),
                    classes=np.array(list(pairs.values()), dtype=np.int64),
                    class_to_id=class_to_id)
    return bundle
