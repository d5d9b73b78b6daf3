import hashlib
import json
import os
import struct

import pytest

from kgar import cli, synthetic


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def small_linkpred(root):
    synthetic.write_dataset(
        str(root), data=synthetic.generate(
            num_entities=40, num_symmetric=2, num_anti_pairs=1,
            pairs_per_symmetric=12, pairs_per_anti=16, num_groups=4,
            sym_test=2, sym_valid=1, anti_test=3, anti_valid=2))
    return str(root)


def small_classify(root):
    root.mkdir(parents=True, exist_ok=True)
    (root / "train.tsv").write_text(
        "n0\tlikes\tn1\nn1\tlikes\tn2\nn2\tlikes\tn3\nn3\tlikes\tn0\n"
        "n0\tnear\tn2\nn1\tnear\tn3\n", encoding="utf-8")
    (root / "labels_train.tsv").write_text("n0\tred\nn1\tblue\n",
                                           encoding="utf-8")
    (root / "labels_test.tsv").write_text("n2\tred\nn3\tblue\n",
                                          encoding="utf-8")
    return str(root)


FAST = ["--embed-dim", "8", "--num-blocks", "2", "--num-layers", "1",
        "--iterations", "4", "--eval-interval", "2", "--batch-size", "16",
        "--optimizer", "gd", "--learning-rate", "0.001", "--l2", "0.0",
        "--dropout-attention", "0.0", "--dropout-conv", "0.0"]


@pytest.fixture
def lp_dir(tmp_path):
    d = small_linkpred(tmp_path / "lp")
    assert cli.main(["preprocess", "--dataset", d]) == 0
    return d


def test_preprocess_reports_counts_and_is_idempotent(tmp_path, capsys):
    d = small_linkpred(tmp_path / "lp")
    assert cli.main(["preprocess", "--dataset", d]) == 0
    out = capsys.readouterr().out
    assert "40 entities" in out and "4 relations" in out
    manifest = os.path.join(d, "bundle", "manifest.json")
    first = sha(manifest)
    assert cli.main(["preprocess", "--dataset", d]) == 0
    assert sha(manifest) == first


def test_preprocess_missing_file_is_data_error(tmp_path, capsys):
    d = small_linkpred(tmp_path / "lp")
    os.remove(os.path.join(d, "test.tsv"))
    assert cli.main(["preprocess", "--dataset", d]) == 2
    assert "test.tsv" in capsys.readouterr().err


def test_preprocess_resolves_via_env(tmp_path, capsys, monkeypatch):
    small_linkpred(tmp_path / "lp")
    monkeypatch.setenv("KGAR_DATA_DIR", str(tmp_path))
    assert cli.main(["preprocess", "--dataset", "lp"]) == 0


def test_preprocess_warns_on_unmatched_drop(tmp_path, capsys):
    d = small_linkpred(tmp_path / "lp")
    assert cli.main(["preprocess", "--dataset", d, "--drop", "ghost"]) == 0
    assert "ghost" in capsys.readouterr().err


def test_train_requires_bundle(tmp_path, capsys):
    d = small_linkpred(tmp_path / "lp")
    assert cli.main(["train", "--dataset", d] + FAST) == 2
    assert "preprocess" in capsys.readouterr().err


def test_train_rejects_invalid_config_before_training(lp_dir, capsys):
    code = cli.main(["train", "--dataset", lp_dir,
                     "--num-blocks", "7", "--embed-dim", "500"])
    assert code == 1
    err = capsys.readouterr().err
    assert "num_blocks" in err
    assert not os.path.isdir(os.path.join(lp_dir, "runs"))


def test_train_same_seed_identical_snapshots(lp_dir, tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (out1, out2):
        assert cli.main(["train", "--dataset", lp_dir, "--out", out,
                         "--seed", "7"] + FAST) == 0
    name = "snapshot-linkpred-seed7-complex.kgar"
    assert sha(os.path.join(out1, name)) == sha(os.path.join(out2, name))
    log = os.path.join(out1, "loss-linkpred-seed7-complex.csv")
    lines = open(log).read().splitlines()
    assert lines[0] == "iteration,loss,valid_metric"
    assert len(lines) == 3  # intervals at 2 and 4


def test_train_and_evaluate_linkpred_report(lp_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out,
                     "--seed", "3"] + FAST) == 0
    capsys.readouterr()
    snap = os.path.join(out, "snapshot-linkpred-seed3-complex.kgar")
    csv_path = str(tmp_path / "report.csv")
    assert cli.main(["evaluate", "--snapshot", snap, "--dataset", lp_dir,
                     "--csv", csv_path]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("mrr_raw", "mrr_filtered", "hits1", "hits3", "hits10"):
        assert key in report
    assert report["mrr_filtered"] >= report["mrr_raw"]
    assert report["task"] == "linkpred"
    header = open(csv_path).read().splitlines()[0]
    assert header.split(",")[:2] == ["task", "dataset"]


def test_evaluate_task_mismatch(lp_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out] + FAST) == 0
    snap = os.path.join(out, "snapshot-linkpred-seed0-complex.kgar")
    code = cli.main(["evaluate", "--snapshot", snap, "--dataset", lp_dir,
                     "--task", "classify"])
    assert code == 2
    assert "linkpred" in capsys.readouterr().err


def test_evaluate_shape_mismatch_names_parameter(lp_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out] + FAST) == 0
    other = small_linkpred(tmp_path / "other")
    # same relations, different entity count
    with open(os.path.join(other, "train.tsv"), "a", encoding="utf-8") as fh:
        fh.write("extra\tsym_0\te000\ne000\tsym_0\textra\n")
    assert cli.main(["preprocess", "--dataset", other]) == 0
    capsys.readouterr()
    snap = os.path.join(out, "snapshot-linkpred-seed0-complex.kgar")
    assert cli.main(["evaluate", "--snapshot", snap,
                     "--dataset", other]) == 2
    assert "embedding" in capsys.readouterr().err


def rewrite_header(src, dst, edit):
    """Copy a snapshot with `edit(header)` applied to its JSON header."""
    with open(src, "rb") as fh:
        magic = fh.readline()
        (length,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(length))
        data = fh.read()
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    with open(dst, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(raw)) + raw + data)


@pytest.mark.parametrize("edit, named", [
    (lambda h: h["meta"]["config"].update(surprise=1), "surprise"),
    (lambda h: h.pop("params"), "params"),
    (lambda h: h["meta"]["config"].pop("embed_dim"), "embed_dim"),
], ids=["unknown-config-key", "no-params", "missing-config-key"])
def test_evaluate_bad_snapshot_header_is_snapshot_error(
        lp_dir, tmp_path, capsys, edit, named):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out] + FAST) == 0
    snap = os.path.join(out, "snapshot-linkpred-seed0-complex.kgar")
    bad = str(tmp_path / "bad.kgar")
    rewrite_header(snap, bad, edit)
    capsys.readouterr()
    assert cli.main(["evaluate", "--snapshot", bad,
                     "--dataset", lp_dir]) == 2
    err = capsys.readouterr().err
    assert "snapshot error" in err and named in err


def test_classify_train_evaluate_roundtrip(tmp_path, capsys):
    d = small_classify(tmp_path / "cl")
    assert cli.main(["preprocess", "--dataset", d]) == 0
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", d, "--out", out,
                     "--iterations", "30", "--embed-dim", "8",
                     "--num-blocks", "2", "--num-layers", "1",
                     "--dropout-attention", "0.0", "--dropout-conv", "0.0",
                     "--eval-interval", "10", "--learning-rate", "0.1"]) == 0
    capsys.readouterr()
    snap = os.path.join(out, "snapshot-classify-seed0.kgar")
    assert cli.main(["evaluate", "--snapshot", snap, "--dataset", d]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["task"] == "classify"
    assert 0.0 <= report["accuracy"] <= 100.0


def test_config_file_precedence(lp_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations=2\nembed_dim=8\nnum_blocks=2\nnum_layers=1\n"
                   "dropout_attention=0\ndropout_conv=0\nl2=0\n"
                   "eval_interval=1\n", encoding="utf-8")
    out = str(tmp_path / "run")
    # CLI --iterations beats the file's 2
    assert cli.main(["train", "--dataset", lp_dir, "--out", out,
                     "--config", str(cfg), "--iterations", "3"]) == 0
    log = os.path.join(out, "loss-linkpred-seed0-complex.csv")
    rows = open(log).read().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3"]


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    assert cli.main(["train"]) == 1  # --dataset required
    assert cli.main(["repro-table", "9"]) == 1
    assert "table" in capsys.readouterr().err


def test_help_lists_config_fields(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--embed-dim", "--num-layers", "--num-blocks", "--l2",
                 "--dropout-attention", "--dropout-conv", "--learning-rate",
                 "--batch-size", "--iterations", "--seed", "--decoder",
                 "--init", "--filtered-negatives", "--optimizer"):
        assert flag in out


def test_repro_table_2_desk_missing_dataset_fails(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["repro-table", "2", "--data-dir", str(tmp_path)]) == 2


def test_repro_table_4_desk_layout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def fake_train_eval(path, bundle, task, seed, decoder="complex"):
        return {"task": task, "dataset": bundle.manifest["dataset"],
                "mrr_raw": 0.5, "mrr_filtered": 0.6, "hits1": 0.4,
                "hits3": 0.7, "hits10": 0.9}

    monkeypatch.setattr(cli, "_repro_train_eval", fake_train_eval)
    assert cli.main(["repro-table", "4", "--data-dir", str(tmp_path)]) == 0
    lines = open(tmp_path / "table4-desk.csv").read().splitlines()
    assert lines[0].startswith("dataset,decoder,mrr_raw")
    data_rows = [l for l in lines[1:] if l.startswith("synthetic")]
    assert len(data_rows) == 2  # complex and distmult
    assert any(l.startswith("fb15k-237") and "0.433" in l for l in lines)
    # the synthetic graph was generated under the data dir
    assert os.path.exists(tmp_path / "synthetic" / "patterns.json")
