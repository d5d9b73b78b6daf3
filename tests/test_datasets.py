import hashlib
import json
import os

import numpy as np
import pytest

from kgar import datasets
from kgar.data import DataError

# the task each known dataset name stands for; `kgar preprocess` detects
# the task from the files instead
DATASET_TASKS = {
    "aifb": "classify",
    "mutag": "classify",
    "bgs": "classify",
    "am": "classify",
    "fb15k-237": "linkpred",
    "synthetic": "linkpred",
}


def dataset_task(name):
    return DATASET_TASKS.get(name)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def make_linkpred_dir(root):
    write(root / "train.tsv", "a\tr0\tb\nb\tr1\tc\nc\tr0\ta\nd\tr2\ta\n")
    write(root / "valid.tsv", "a\tr1\tc\n")
    write(root / "test.tsv", "b\tr0\ta\n")
    return str(root)


def make_classify_dir(root):
    write(root / "train.tsv",
          "n0\thttp://x.org/onto#likes\tn1\n"
          "n1\thttp://x.org/onto#likes\tn2\n"
          "n2\thttp://x.org/onto#employs\tn0\n"
          "n0\thttp://x.org/onto#near\tn3\n")
    write(root / "labels_train.tsv", "n0\tred\nn1\tblue\n")
    write(root / "labels_test.tsv", "n2\tred\n")
    return str(root)


def test_resolve_drop_names_suffix_matching():
    rels = ["http://swrc.ontoware.org/ontology#employs",
            "http://swrc.ontoware.org/ontology#worksAt",
            "http://purl.org/collections/nl/am/material",
            "plain"]
    matched, unmatched = datasets.resolve_drop_names(
        rels, ["employs", "material", "plain", "absent"])
    assert matched == [rels[0], rels[2], "plain"]
    assert unmatched == ["absent"]
    # a bare suffix must not match mid-word
    matched, _ = datasets.resolve_drop_names(
        ["http://x.org/reemploys"], ["employs"])
    assert matched == []


def test_resolve_dataset_dir(tmp_path):
    d = tmp_path / "aifb"
    d.mkdir()
    assert datasets.resolve_dataset_dir(str(d)) == str(d)
    env = {datasets.DATA_DIR_ENV: str(tmp_path)}
    assert datasets.resolve_dataset_dir("aifb", env=env) == str(d)
    with pytest.raises(DataError, match="not found"):
        datasets.resolve_dataset_dir("nope", env=env)
    with pytest.raises(DataError, match=datasets.DATA_DIR_ENV):
        datasets.resolve_dataset_dir("nope", env={})


def test_detect_task(tmp_path):
    link = tmp_path / "lp"
    make_linkpred_dir(link)
    assert datasets.detect_task(str(link)) == "linkpred"
    cls = tmp_path / "cl"
    make_classify_dir(cls)
    assert datasets.detect_task(str(cls)) == "classify"
    with pytest.raises(DataError, match="not a dataset directory"):
        datasets.detect_task(str(tmp_path))


def test_preprocess_linkpred_counts(tmp_path):
    d = make_linkpred_dir(tmp_path / "lp")
    processed = datasets.preprocess(d)
    m = processed["manifest"]
    assert m["task"] == "linkpred"
    assert m["num_entities"] == 4
    assert m["num_relations"] == m["num_relations_raw"] == 3
    assert m["counts"] == {"train": 4, "valid": 1, "test": 1}
    # first-appearance ids: a=0, b=1, c=2, d=3
    assert processed["splits"]["test"].tolist() == [[1, 0, 0]]


def test_preprocess_missing_split_names_file(tmp_path):
    d = tmp_path / "lp"
    make_linkpred_dir(d)
    os.remove(d / "test.tsv")
    with pytest.raises(DataError, match=r"test\.tsv"):
        datasets.preprocess(str(d))


def test_preprocess_drop_preserves_entities(tmp_path):
    d = make_classify_dir(tmp_path / "cl")
    processed = datasets.preprocess(d, drop_names=("employs",))
    m = processed["manifest"]
    assert m["num_relations_raw"] == 3
    assert m["num_relations"] == 2
    assert m["dropped_relations"] == ["http://x.org/onto#employs"]
    # n2 only appears as head of a dropped triple yet keeps its id
    assert m["num_entities"] == 4
    assert len(processed["splits"]["train"]) == 3
    # remaining relations keep their relative order, recompacted
    assert processed["relations"] == ["http://x.org/onto#likes",
                                      "http://x.org/onto#near"]


def test_preprocess_classify_labels(tmp_path):
    d = make_classify_dir(tmp_path / "cl")
    processed = datasets.preprocess(d, drop_names=())
    m = processed["manifest"]
    assert m["num_classes"] == 2
    assert m["counts"]["labels_train"] == 2
    assert m["counts"]["labels_test"] == 1
    assert processed["labels"]["test"].tolist() == [[2, 0]]  # n2 -> red


def test_preprocess_unknown_label_entity(tmp_path):
    d = tmp_path / "cl"
    make_classify_dir(d)
    write(d / "labels_test.tsv", "ghost\tred\n")
    with pytest.raises(DataError, match="ghost"):
        datasets.preprocess(str(d))


def checksum_dir(path):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_bundle_roundtrip_and_idempotence(tmp_path):
    d = make_linkpred_dir(tmp_path / "lp")
    out = tmp_path / "bundle"
    datasets.write_bundle(str(out), datasets.preprocess(d))
    first = checksum_dir(out)
    bundle = datasets.load_bundle(str(out))
    assert bundle.task == "linkpred"
    assert len(bundle.graph.triple_array()) == 4
    assert bundle.entity_names.index("d") == 3
    assert [tuple(t) for t in bundle.splits["valid"]] == [(0, 1, 2)]

    datasets.write_bundle(str(out), datasets.preprocess(d))
    assert checksum_dir(out) == first

    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh) == bundle.manifest


def test_bundle_roundtrip_classify(tmp_path):
    d = make_classify_dir(tmp_path / "cl")
    out = tmp_path / "bundle"
    datasets.write_bundle(str(out), datasets.preprocess(d))
    bundle = datasets.load_bundle(str(out))
    assert bundle.task == "classify"
    assert bundle.class_names == ["red", "blue"]
    assert bundle.labels["test"].entities.tolist() == [2]
    assert bundle.labels["test"].classes.tolist() == [0]
    assert bundle.labels["train"].num_classes == 2
    # drop list defaulted to the directory profile: 'cl' has none
    assert bundle.manifest["dropped_relations"] == []


def test_load_bundle_returns_the_preprocessed_arrays(tmp_path):
    d = make_linkpred_dir(tmp_path / "lp")
    with open(os.path.join(d, "train.tsv"), "a", encoding="utf-8") as fh:
        fh.write("a\tr0\tb\nc\tr0\ta\n")  # duplicates
    processed = datasets.preprocess(d, drop_names=("r1",), dedup=True)
    assert processed["splits"]["train"].tolist() == [[0, 0, 1], [2, 0, 0],
                                                     [3, 1, 0]]
    datasets.write_bundle(str(tmp_path / "lp-bundle"), processed)
    bundle = datasets.load_bundle(str(tmp_path / "lp-bundle"))
    for split, rows in processed["splits"].items():
        loaded = (bundle.graph.triple_array() if split == "train"
                  else bundle.splits[split])
        assert loaded.dtype == rows.dtype == np.int64
        np.testing.assert_array_equal(loaded, rows)

    processed = datasets.preprocess(make_classify_dir(tmp_path / "cl"))
    datasets.write_bundle(str(tmp_path / "cl-bundle"), processed)
    bundle = datasets.load_bundle(str(tmp_path / "cl-bundle"))
    np.testing.assert_array_equal(bundle.graph.triple_array(),
                                  processed["splits"]["train"])
    for part, rows in processed["labels"].items():
        np.testing.assert_array_equal(bundle.labels[part].entities, rows[:, 0])
        np.testing.assert_array_equal(bundle.labels[part].classes, rows[:, 1])


def test_failed_manifest_write_leaves_no_temp_file(tmp_path, monkeypatch):
    d = make_linkpred_dir(tmp_path / "lp")
    out = tmp_path / "bundle"

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail)
    with pytest.raises(OSError, match="disk full"):
        datasets.write_bundle(str(out), datasets.preprocess(d))
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]
    assert not (out / "manifest.json").exists()


def test_load_bundle_missing(tmp_path):
    with pytest.raises(DataError, match="preprocess"):
        datasets.load_bundle(str(tmp_path / "nothing"))


def test_dataset_profiles():
    assert dataset_task("aifb") == "classify"
    assert dataset_task("synthetic") == "linkpred"
    assert datasets.default_drop("mutag") == ("isMutagenic",)
    assert datasets.default_drop("unheard-of") == ()
    assert datasets.dataset_defaults("synthetic")["optimizer"] == "adam"
    assert datasets.dataset_defaults("aifb") == {}
