import json
import os

from conftest import antisymmetric_relations
from kgar import synthetic


def triple_set(rows):
    return {tuple(t) for t in rows}


def group_of(name, group_size=20):
    return int(name[1:]) // group_size


def test_generate_deterministic():
    a = synthetic.generate()
    b = synthetic.generate()
    assert a == b


def test_split_sizes_and_vocabulary():
    data = synthetic.generate()
    assert len(data["test"]) == 4 * 12 + 2 * 24
    assert len(data["valid"]) == 4 * 6 + 2 * 12
    rels = {r for split in ("train", "valid", "test") for _, r, _ in data[split]}
    assert rels == {f"sym_{k}" for k in range(4)} | {f"anti_{k}" for k in range(4)}
    train_entities = {n for h, _, t in data["train"] for n in (h, t)}
    assert train_entities == {f"e{i:03d}" for i in range(200)}


def test_splits_are_disjoint():
    data = synthetic.generate()
    train = triple_set(data["train"])
    valid = triple_set(data["valid"])
    test = triple_set(data["test"])
    assert not train & valid and not train & test and not valid & test
    assert len(train) == len(data["train"])


def test_symmetric_heldout_reversal_is_trained():
    data = synthetic.generate()
    train = triple_set(data["train"])
    for h, r, t in data["valid"] + data["test"]:
        if r.startswith("sym_"):
            assert (t, r, h) in train


def test_antisymmetric_edges_point_up_the_chain():
    data = synthetic.generate()
    for split in ("train", "valid", "test"):
        for h, r, t in data[split]:
            if r.startswith("anti_"):
                assert group_of(h) < group_of(t)


def test_inferable_heldout_has_trained_evidence_twin():
    data = synthetic.generate()
    train = triple_set(data["train"])
    paired = {rel: info["paired_with"]
              for rel, info in data["patterns"].items()
              if info["type"] == "antisymmetric_chain"}
    held = [t for t in data["valid"] + data["test"] if t[1] in paired]
    assert held
    for h, r, t in held:
        assert data["patterns"][r]["role"] == "inferable"
        assert (h, paired[r], t) in train


def test_evidence_relation_is_fully_trained():
    data = synthetic.generate()
    evidence = {rel for rel, info in data["patterns"].items()
                if info.get("role") == "evidence"}
    assert evidence == {"anti_0", "anti_2"}
    for h, r, t in data["valid"] + data["test"]:
        assert r not in evidence


def test_write_and_ensure_dataset(tmp_path):
    out = tmp_path / "synth"
    synthetic.write_dataset(str(out))
    with open(out / "patterns.json", encoding="utf-8") as fh:
        patterns = json.load(fh)
    assert antisymmetric_relations(patterns) == {
        "anti_0", "anti_1", "anti_2", "anti_3"}
    lines = (out / "train.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 3 for line in lines)
    assert len(lines) == len(synthetic.generate()["train"])

    stamp = os.path.getmtime(out / "train.tsv")
    assert synthetic.ensure_dataset(str(out)) == str(out)
    assert os.path.getmtime(out / "train.tsv") == stamp
