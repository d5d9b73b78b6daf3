import hashlib
import json
import math
import os
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from kgar import cli, datasets, synthetic
from kgar.config import RunConfig, resolve_config
from kgar.data import DataError
from kgar.model import init_params, schema
from kgar.snapshot import load_snapshot, save_snapshot
from kgar.tensor import Parameter


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


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
def test_train_with_relation_absent_from_train(tmp_path, capsys, optimizer):
    d = small_linkpred(tmp_path / "lp")
    with open(os.path.join(d, "test.tsv"), "a", encoding="utf-8") as fh:
        fh.write("e000\tghost\te001\n")
    assert cli.main(["preprocess", "--dataset", d]) == 0
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", d, "--out", out, "--seed", "4"]
                    + FAST + ["--optimizer", optimizer]) == 0
    meta, arrays = load_snapshot(
        os.path.join(out, "snapshot-linkpred-seed4-complex.kgar"))
    run = cli._check_meta(meta)
    bundle = datasets.load_bundle(os.path.join(d, "bundle"))
    ghost = bundle.relation_names.index("ghost")
    initial = init_params(bundle.num_entities, bundle.num_relations, run,
                          "linkpred", np.random.default_rng(4))
    for direction in ("forward", "backward"):
        name = f"layer0.{direction}.blocks"
        rows = slice(ghost * 8, (ghost + 1) * 8)  # embed_dim 8
        trained = arrays[name]
        np.testing.assert_array_equal(
            trained[rows], initial.layers[0].blocks[direction].values[rows])
        assert not np.array_equal(
            trained, initial.layers[0].blocks[direction].values)


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
    cl_dir = small_classify(tmp_path / "cl")
    assert cli.main(["preprocess", "--dataset", cl_dir]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", "--snapshot", snap, "--dataset", cl_dir]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'classify'" in err and "'linkpred'" in err


def test_task_comes_from_the_bundle(lp_dir, capsys):
    assert cli.main(["train", "--dataset", lp_dir, "--task", "classify"]
                    + FAST) == 1
    assert "unrecognized arguments: --task classify" in capsys.readouterr().err
    for command in ("train", "evaluate"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert "--task" not in capsys.readouterr().out


@pytest.mark.parametrize("line, key", [
    ("task=classify", "task"), ("dataset_dir=elsewhere", "dataset_dir"),
], ids=["task", "dataset-dir"])
def test_config_file_may_not_set_dataset_fields(lp_dir, tmp_path, capsys,
                                                line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", lp_dir, "--out", str(out),
                     "--config", str(cfg)] + FAST) == 1
    assert (f"a config file may not set {key}; --dataset sets it"
            in capsys.readouterr().err)
    assert not out.exists()


def test_snapshot_header_states_each_fact_once(lp_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", lp_dir, "--out", str(out),
                     "--seed", "3"] + FAST) == 0
    snap = str(out / "snapshot-linkpred-seed3-complex.kgar")
    with open(snap, "rb") as fh:
        fh.readline()
        (length,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(length))
    assert set(header["meta"]) == {"dataset", "config", "numpy", "blas_env"}
    assert header["meta"]["config"]["task"] == "linkpred"
    assert all(set(entry) == {"name", "shape", "dtype"}
               for entry in header["params"])

    run = cli._check_meta(header["meta"])
    flags = {name: regularized for name, _, _, regularized in schema(
        40, 4, run, "linkpred", run.decoder, None)}

    def earlier_layout(h):
        h["meta"].update(format=1, task="linkpred", num_entities=40,
                         num_relations=4)
        for entry in h["params"]:
            entry["regularized"] = flags[entry["name"]]

    old = str(tmp_path / "old.kgar")
    rewrite_header(snap, old, earlier_layout)
    capsys.readouterr()
    reports = []
    for path in (snap, old):
        assert cli.main(["evaluate", "--snapshot", path,
                         "--dataset", lp_dir]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_snapshot_records_the_numeric_environment(lp_dir, tmp_path,
                                                  capsys, monkeypatch):
    # same-seed bits depend on the numpy version and the BLAS thread
    # count, so a snapshot records both beside its config, and evaluate
    # reads a snapshot with or without them
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", lp_dir, "--out", str(out),
                     "--seed", "3"] + FAST) == 0
    snap = str(out / "snapshot-linkpred-seed3-complex.kgar")
    meta, _ = load_snapshot(snap)
    assert meta["numpy"] == np.__version__
    assert meta["blas_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                "OMP_NUM_THREADS": "",
                                "MKL_NUM_THREADS": "2"}
    assert not {"numpy", "blas_env"} & set(meta["config"])

    def without_environment(h):
        del h["meta"]["numpy"], h["meta"]["blas_env"]

    old = str(tmp_path / "old.kgar")
    rewrite_header(snap, old, without_environment)
    capsys.readouterr()
    reports = []
    for path in (snap, old):
        assert cli.main(["evaluate", "--snapshot", path,
                         "--dataset", lp_dir]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_loss_log_records_each_interval(tmp_path, capsys):
    d = small_classify(tmp_path / "cl")
    # n3 moves from the test labels to the validation labels
    (tmp_path / "cl" / "labels_test.tsv").write_text("n2\tred\n",
                                                     encoding="utf-8")
    (tmp_path / "cl" / "labels_valid.tsv").write_text("n3\tblue\n",
                                                      encoding="utf-8")
    assert cli.main(["preprocess", "--dataset", d]) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--dataset", d, "--out", str(out)] + FAST
                    + ["--iterations", "10", "--eval-interval", "4"]) == 0
    lines = (out / "loss-classify-seed0.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss,valid_metric"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4, 8, 10]
    progress = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("iteration ")]
    for (iteration, loss, metric), line in zip(rows, progress, strict=True):
        # valid metric present when labels_valid is given; the stderr line
        # reports the same interval
        assert line == (f"iteration {iteration}  loss {float(loss):.4f}  "
                        f"valid {float(metric):.4f}")


def test_diverging_train_keeps_finished_intervals(lp_dir, tmp_path, capsys):
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--dataset", lp_dir, "--out", str(out)]
                        + FAST + ["--eval-interval", "1",
                                  "--learning-rate", "1e30"])
    assert code == 3
    failed = int(re.search(r"numeric failure: iteration (\d+)",
                           capsys.readouterr().err).group(1))
    assert failed > 1
    assert not list(out.glob("snapshot-*"))
    lines = (out / "loss-linkpred-seed0-complex.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss,valid_metric"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(
        range(1, failed))


def test_failed_rerun_leaves_no_earlier_snapshot(lp_dir, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["train", "--dataset", lp_dir, "--out", str(out)] + FAST
    assert cli.main(args) == 0
    assert (out / "snapshot-linkpred-seed0-complex.kgar").exists()
    with np.errstate(all="ignore"):
        code = cli.main(args + ["--learning-rate", "1e30"])
    assert code == 3
    # the log and the snapshot beside it describe the same run
    assert not list(out.glob("snapshot-*"))
    lines = (out / "loss-linkpred-seed0-complex.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss,valid_metric"


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
    err = capsys.readouterr().err
    assert "snapshot error" in err
    assert "'embedding' has shape (40, 8), expected (41, 8)" in err


def append_to(name, text, mode="a"):
    """An edit that appends `text` to a raw dataset file, or writes it over
    the file in mode "w"."""
    def edit(root):
        with open(os.path.join(root, name), mode, encoding="utf-8") as fh:
            fh.write(text)
    return edit


@pytest.mark.parametrize("make, edit, named", [
    (small_linkpred, append_to("train.tsv", "e000\tnew_rel\te001\n"),
     "'layer0.forward.blocks' has shape (32, 4), expected (40, 4)"),
    # a third class, on an entity that holds no other label
    (small_classify, append_to("labels_test.tsv", "n2\tgreen\nn3\tblue\n",
                               mode="w"),
     "'classify.head' has shape (8, 2), expected (8, 3)"),
], ids=["relations", "classes"])
def test_evaluate_count_mismatch_names_parameter_and_shapes(
        tmp_path, capsys, make, edit, named):
    trained, other = make(tmp_path / "a"), make(tmp_path / "b")
    edit(other)
    for d in (trained, other):
        assert cli.main(["preprocess", "--dataset", d]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", trained, "--out", str(out)]
                    + FAST) == 0
    (snap,) = out.glob("snapshot-*.kgar")
    capsys.readouterr()
    assert cli.main(["evaluate", "--snapshot", str(snap),
                     "--dataset", other]) == 2
    err = capsys.readouterr().err
    assert "snapshot error" in err and named in err


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
    (lambda h: h["meta"]["config"].update(num_blocks="two"),
     "config is invalid"),
    (lambda h: h["meta"]["config"].update(num_blocks=3), "num_blocks 3"),
    (lambda h: h["params"][0].update(dtype="<f4"), "'<f4'"),
    (lambda h: h["meta"]["config"].update(num_layers=1.0),
     "num_layers must be of type int, got 1.0"),
    (lambda h: h["meta"]["config"].update(embed_dim=8.0),
     "embed_dim must be of type int, got 8.0"),
    (lambda h: h["meta"]["config"].update(embed_dim=9, num_blocks=1),
     "even embed_dim"),
    # 2**64 values: a size in int64 would wrap to 0
    (lambda h: h["params"][0].update(shape=[2**32, 2**32]),
     "truncated data for 'embedding'"),
    # json writes and reads these as NaN, Infinity and -Infinity
    (lambda h: h["meta"]["config"].update(learning_rate=math.nan),
     "learning_rate must be finite"),
    (lambda h: h["meta"]["config"].update(learning_rate=math.inf),
     "learning_rate must be finite"),
    (lambda h: h["meta"]["config"].update(l2=math.nan), "l2 must be finite"),
    (lambda h: h["meta"]["config"].update(l2=-math.inf), "l2 must be finite"),
    (lambda h: h["meta"]["config"].update(seed=-1), "seed must be >= 0"),
], ids=["unknown-config-key", "no-params", "missing-config-key",
        "mistyped-config-value", "invalid-config-value", "wrong-dtype",
        "float-num-layers", "float-embed-dim", "odd-complex-embed-dim",
        "overflowing-shape", "nan-learning-rate", "inf-learning-rate",
        "nan-l2", "minus-inf-l2", "negative-seed"])
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


def test_snapshot_without_dtype_reads_as_f8(tmp_path):
    snap, plain = str(tmp_path / "w.kgar"), str(tmp_path / "plain.kgar")
    values = np.arange(6.0).reshape(2, 3)
    save_snapshot(snap, [Parameter("w", values)], {})
    rewrite_header(snap, plain, lambda h: h["params"][0].pop("dtype"))
    _, arrays = load_snapshot(plain)
    np.testing.assert_array_equal(arrays["w"], values)


def edit_lines(edit):
    """A corruption that rewrites a text file's lines with `edit(lines)`."""
    def corrupt(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in edit(lines)))
    return corrupt


def edit_ids(edit):
    """A corruption that saves `edit(rows)` over an id array file."""
    def corrupt(path):
        np.save(path, edit(np.load(path)))
    return corrupt


def first_row(row):
    return edit_ids(lambda rows: np.concatenate([[row], rows[1:]]))


def truncate_bytes(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-5])


def npy_header_states(shape, extra_rows=0):
    """A corruption that writes an id file's rows, plus `extra_rows` copies
    of its first row, behind a .npy header that states `shape`."""
    def corrupt(path):
        rows = np.load(path)
        rows = np.concatenate([rows] + [rows[:1]] * extra_rows)
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<i8", "fortran_order": False, "shape": shape})
            fh.write(rows.tobytes())
    return corrupt


def text_ids(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0\t0\t3\n1\t0\t2\n")


def tsv_id_bundle(path):
    """Turn a bundle into the earlier layout, whose id splits were TSV text
    files (`path` is the train split's array file)."""
    bundle_dir = os.path.dirname(path)
    for name in os.listdir(bundle_dir):
        if name.endswith(".npy"):
            rows = np.load(os.path.join(bundle_dir, name))
            np.savetxt(os.path.join(bundle_dir, name[:-4] + ".tsv"), rows,
                       fmt="%d", delimiter="\t")
            os.remove(os.path.join(bundle_dir, name))


@pytest.mark.parametrize("name, corrupt, detail", [
    ("triples_test.npy", first_row([-1, 0, 3]), "row 1"),
    ("triples_test.npy", first_row([999, 0, 3]), "row 1"),
    ("triples_test.npy", first_row([0, 99, 3]), "row 1"),
    ("triples_test.npy", edit_ids(lambda rows: rows[:-1]), "manifest counts"),
    ("triples_test.npy", truncate_bytes, "not a readable .npy id array"),
    # read as stated, this header would allocate 224 GiB
    ("triples_test.npy", npy_header_states((10 ** 10, 3)),
     "10000000000 rows, but the manifest counts 7"),
    ("triples_test.npy", npy_header_states((7, 3), extra_rows=1),
     "not a readable .npy id array"),
    ("triples_test.npy", text_ids, "magic string is not correct"),
    ("triples_test.npy", lambda path: open(path, "w").close(),
     "not a readable .npy id array"),
    ("triples_test.npy", edit_ids(lambda rows: rows.astype(np.float64)),
     "got float64 of shape (7, 3)"),
    ("triples_test.npy", edit_ids(lambda rows: rows[:, :2]),
     "expected an (n, 3) int64 array, got int64 of shape (7, 2)"),
    ("triples_train.npy", tsv_id_bundle, "rerun `kgar preprocess`"),
    ("entities.tsv", edit_lines(lambda lines: ["x\te000"] + lines[1:]),
     ":1:"),
    ("entities.tsv", edit_lines(lambda lines: lines[:5]),
     "5 names, but the manifest counts 40"),
    ("relations.tsv", edit_lines(lambda lines: lines[:2]),
     "2 names, but the manifest counts 4"),
    ("manifest.json", edit_lines(lambda lines: lines[:-2]), ""),
    ("manifest.json", edit_lines(
        lambda lines: [line.replace('"counts"', '"tallies"')
                       for line in lines]), "counts"),
    # small_classify labels n0 (id 0) red (class 0) for training
    ("labels_train.npy", edit_ids(lambda rows: rows[[0, 0]]),
     "row 2 labels entity 0 again"),
    ("labels_test.npy", first_row([0, 1]), "row 1 labels entity 0 again"),
], ids=["negative-id", "entity-out-of-range", "relation-out-of-range",
        "short-file", "truncated-npy", "overstated-header",
        "rows-beyond-header", "text-under-npy-name", "empty-npy",
        "float64-ids", "two-column-triples", "tsv-id-bundle",
        "entity-names-bad-id", "truncated-entity-names",
        "truncated-relation-names", "truncated-manifest",
        "manifest-without-counts", "relabelled-entity",
        "train-entity-in-test-labels"])
def test_evaluate_corrupt_bundle_is_data_error(tmp_path, capsys, name,
                                               corrupt, detail):
    make = small_classify if name.startswith("labels_") else small_linkpred
    root = make(tmp_path / "d")
    assert cli.main(["preprocess", "--dataset", root]) == 0
    corrupt(os.path.join(root, "bundle", name))
    capsys.readouterr()
    # the bundle loads before the snapshot is read
    assert cli.main(["evaluate", "--snapshot", "absent.kgar",
                     "--dataset", root]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and name in err and detail in err


def edit_manifest(edit):
    """A corruption that applies `edit(manifest)` to a bundle's manifest."""
    def corrupt(root):
        path = os.path.join(root, "bundle", datasets.MANIFEST)
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
    return corrupt


def drop_count(split):
    return edit_manifest(lambda m: m["counts"].pop(split))


def set_key(key, value):
    return edit_manifest(lambda m: m.update({key: value}))


@pytest.mark.parametrize("make, corrupt, named", [
    (small_linkpred, drop_count("train"), "counts.train"),
    (small_linkpred, drop_count("valid"), "counts.valid"),
    (small_linkpred, drop_count("test"), "counts.test"),
    (small_classify, drop_count("labels_train"), "counts.labels_train"),
    (small_classify, drop_count("labels_test"), "counts.labels_test"),
    (small_linkpred, edit_manifest(lambda m: m["counts"].update(train="75")),
     "counts.train must be a non-negative int, got '75'"),
    (small_linkpred, edit_manifest(lambda m: m["counts"].update(extra=-1)),
     "counts.extra must be a non-negative int, got -1"),
    (small_linkpred, set_key("counts", [75, 4, 7]),
     "counts must be an object"),
    (small_linkpred, set_key("task", "bogus"),
     "task must be one of ('classify', 'linkpred'), got 'bogus'"),
    (small_linkpred, set_key("num_entities", "40"),
     "num_entities must be a non-negative int, got '40'"),
    (small_linkpred, set_key("num_relations", True),
     "num_relations must be a non-negative int, got True"),
    (small_linkpred, set_key("num_entities", -1),
     "num_entities must be a non-negative int, got -1"),
    (small_classify, set_key("num_classes", 2.0),
     "num_classes must be a non-negative int, got 2.0"),
], ids=["no-train-count", "no-valid-count", "no-test-count",
        "no-labels-train-count", "no-labels-test-count", "string-count",
        "negative-count", "counts-list", "unknown-task", "string-entities",
        "bool-relations", "negative-entities", "float-classes"])
def test_corrupt_manifest_is_data_error(tmp_path, capsys, make, corrupt,
                                        named):
    d = make(tmp_path / "d")
    assert cli.main(["preprocess", "--dataset", d]) == 0
    corrupt(d)
    capsys.readouterr()
    assert cli.main(["train", "--dataset", d, "--out",
                     str(tmp_path / "run")] + FAST) == 2
    err = capsys.readouterr().err
    assert "data error" in err and datasets.MANIFEST in err and named in err


def insert_byte_ff(path):
    """Put one byte that no UTF-8 text holds in the middle of a file."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])


@pytest.mark.parametrize("make, name, command", [
    (small_linkpred, "train.tsv", "preprocess"),
    (small_classify, "labels_train.tsv", "preprocess"),
    (small_linkpred, "bundle/entities.tsv", "train"),
    (small_linkpred, "bundle/relations.tsv", "train"),
    (small_classify, "bundle/classes.tsv", "train"),
    (small_linkpred, "bundle/manifest.json", "train"),
], ids=["raw-triples", "raw-labels", "entity-names", "relation-names",
        "class-names", "manifest"])
def test_non_utf8_input_is_data_error_naming_the_file(tmp_path, capsys, make,
                                                      name, command):
    d = make(tmp_path / "d")
    args = ["preprocess", "--dataset", d]
    if command == "train":
        assert cli.main(args) == 0
        args = ["train", "--dataset", d, "--out", str(tmp_path / "run")] + FAST
    insert_byte_ff(os.path.join(d, name))
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"data error: {os.path.join(d, name)}: " in err and "0xff" in err


def test_non_utf8_config_file_is_usage_error_naming_it(lp_dir, tmp_path,
                                                       capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"iterations=2\n# \xff\n")
    assert cli.main(["train", "--dataset", lp_dir, "--out",
                     str(tmp_path / "run"), "--config", str(cfg)] + FAST) == 1
    assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err


def test_repro_table_rebuilds_a_tsv_id_bundle(tmp_path):
    bundle_dir = tmp_path / "synthetic" / "bundle"
    _, bundle = cli._repro_prepare("synthetic", str(tmp_path))
    tsv_id_bundle(str(bundle_dir / "triples_train.npy"))
    _, rebuilt = cli._repro_prepare("synthetic", str(tmp_path))
    np.testing.assert_array_equal(rebuilt.graph.triple_array(),
                                  bundle.graph.triple_array())
    assert (bundle_dir / "triples_train.npy").exists()


def test_repro_table_drops_the_relations_a_kept_bundle_holds(tmp_path):
    # a bundle preprocessed with --keep-all still holds the label-leaking
    # relation that the table's preprocessing drops
    d = small_classify(tmp_path / "aifb")
    with open(os.path.join(d, "train.tsv"), "a", encoding="utf-8") as fh:
        fh.write("n2\thttp://x.org/onto#employs\tn0\n")
    assert cli.main(["preprocess", "--dataset", d, "--keep-all"]) == 0
    kept = datasets.load_bundle(os.path.join(d, "bundle"))
    assert "http://x.org/onto#employs" in kept.relation_names
    _, bundle = cli._repro_prepare("aifb", str(tmp_path))
    assert "http://x.org/onto#employs" not in bundle.relation_names
    assert bundle.manifest["dropped_relations"] == [
        "http://x.org/onto#employs"]


def test_failed_bundle_write_leaves_no_bundle(tmp_path, monkeypatch,
                                              capsys):
    path, bundle = cli._repro_prepare("synthetic", str(tmp_path))
    bundle_dir = os.path.join(path, "bundle")
    save, saved = np.save, []

    def save_then_fail(file, *args, **kwargs):
        saved.append(file)
        if len(saved) == 2:
            raise OSError("disk full")
        save(file, *args, **kwargs)

    monkeypatch.setattr(np, "save", save_then_fail)
    with pytest.raises(OSError, match="disk full"):
        datasets.write_bundle(bundle_dir, datasets.preprocess(path))
    monkeypatch.undo()
    with pytest.raises(DataError, match="bundle not found"):
        datasets.load_bundle(bundle_dir)
    assert cli.main(["evaluate", "--snapshot", "absent.kgar",
                     "--dataset", path]) == 2
    assert "bundle not found" in capsys.readouterr().err
    _, rebuilt = cli._repro_prepare("synthetic", str(tmp_path))
    np.testing.assert_array_equal(rebuilt.graph.triple_array(),
                                  bundle.graph.triple_array())


def rewrite_params(src, dst, edit):
    """Copy a snapshot with `edit(arrays)` applied to its name->array map;
    the entries that an edit returns, as (name, values) pairs, follow the
    map's, names it holds among them."""
    meta, arrays = load_snapshot(src)
    extra = edit(arrays) or []
    entries = [*arrays.items(), *extra]
    save_snapshot(dst, [Parameter(name, values) for name, values in entries],
                  meta)


def split_relations(arrays):
    """Rewrite stacked relation weights in the per-relation layout that
    snapshots had before the weights were stacked."""
    num_relations = len(arrays["fusion.gates"])
    for name in [n for n in arrays if n.endswith(".blocks")]:
        prefix = name[:-len(".blocks")]
        for r, rows in enumerate(np.split(arrays.pop(name), num_relations)):
            arrays[f"{prefix}.rel{r}.blocks"] = rows


def fill(name, value):
    """An edit that fills one parameter with `value`."""
    return lambda arrays: arrays[name].fill(value)


def drop(name):
    """An edit that removes one parameter."""
    return lambda arrays: arrays.__delitem__(name)


@pytest.mark.parametrize("edit, named", [
    (drop("layer0.att_w"), "'layer0.att_w'"),
    (drop("decoder.rel_re"), "'decoder.rel_re'"),
    (lambda a: a.update({"layer0.att_w": np.zeros((3, 3))}),
     "'layer0.att_w' has shape (3, 3), expected (8, 8)"),
    (lambda a: a.update({"decoder.rel_re": np.zeros((2, 1))}),
     "'decoder.rel_re' has shape (2, 1), expected (4, 4)"),
    (lambda a: a.update({"fusion.gates": np.zeros((1, 1))}),
     "'fusion.gates' has shape (1, 1), expected (4, 1)"),
    (fill("decoder.rel_re", np.nan),
     "'decoder.rel_re' has non-finite values"),
    (fill("embedding", np.inf), "'embedding' has non-finite values"),
    (lambda a: a.update({"layer7.att_w": a["layer0.att_w"]}),
     "['layer7.att_w'] that the model does not use"),
    (lambda a: [("decoder.rel_re", np.zeros((4, 4)))],
     "repeated parameter 'decoder.rel_re'"),
], ids=["missing-att-w", "missing-rel-re", "misshapen-att-w",
        "misshapen-rel-re", "misshapen-gates", "nan-rel-re", "inf-embedding",
        "unused-layer7-att-w", "repeated-rel-re"])
def test_evaluate_bad_snapshot_parameter_is_snapshot_error(
        lp_dir, tmp_path, capsys, edit, named):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out] + FAST) == 0
    snap = os.path.join(out, "snapshot-linkpred-seed0-complex.kgar")
    bad = str(tmp_path / "bad.kgar")
    rewrite_params(snap, bad, edit)
    capsys.readouterr()
    assert cli.main(["evaluate", "--snapshot", bad,
                     "--dataset", lp_dir]) == 2
    err = capsys.readouterr().err
    assert "snapshot error" in err and named in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_overflowed_scores_is_numeric_failure(lp_dir, tmp_path,
                                                      capsys):
    # a positive gate scale leaves every ranking as it is, until the
    # candidate scores overflow: then the run must fail, not report
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out] + FAST) == 0
    snap = os.path.join(out, "snapshot-linkpred-seed0-complex.kgar")
    big = str(tmp_path / "big.kgar")
    rewrite_params(snap, big, fill("fusion.gates", 1e300))
    capsys.readouterr()
    assert cli.main(["evaluate", "--snapshot", big,
                     "--dataset", lp_dir]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric failure: non-finite candidate score in query 0" \
        in captured.err


def test_evaluate_per_relation_snapshot_must_be_retrained(lp_dir, tmp_path,
                                                          capsys):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--dataset", lp_dir, "--out", out] + FAST) == 0
    snap = os.path.join(out, "snapshot-linkpred-seed0-complex.kgar")
    old = str(tmp_path / "old.kgar")
    rewrite_params(snap, old, split_relations)
    assert "layer0.forward.rel3.blocks" in load_snapshot(old)[1]
    capsys.readouterr()
    assert cli.main(["evaluate", "--snapshot", old,
                     "--dataset", lp_dir]) == 2
    err = capsys.readouterr().err
    assert "snapshot error" in err and "'layer0.forward.blocks'" in err
    assert "retrained" in err


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


def test_config_file_stating_a_key_twice_is_usage_error(lp_dir, tmp_path,
                                                        capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations=2\nseed=1\niterations=3\n", encoding="utf-8")
    assert cli.main(["train", "--dataset", lp_dir, "--out",
                     str(tmp_path / "run"), "--config", str(cfg)] + FAST) == 1
    assert (f"error: {cfg}:3: key 'iterations' is set again, first at "
            f"{cfg}:1") in capsys.readouterr().err


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    assert cli.main(["train"]) == 1  # --dataset required
    assert cli.main(["repro-table", "9"]) == 1
    assert "table" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--embed-dim", "x", "argument --embed-dim: invalid int value: 'x'"),
    ("--l2", "x", "argument --l2: invalid float value: 'x'"),
    ("--decoder", "transe", "argument --decoder: invalid choice: 'transe' "
                            "(choose from 'complex', 'distmult')"),
], ids=["int", "float", "choice"])
def test_bad_flag_value_is_usage_error(capsys, flag, value, message):
    assert cli.main(["train", "--dataset", ".", flag, value]) == 1
    assert message in capsys.readouterr().err


def flag_help(out):
    """`--help` output -> {flag: its help text on one line}."""
    blocks = {}
    for line in out.splitlines():
        if line.startswith("  --"):
            flag = line.split()[0].rstrip(",")
            blocks[flag] = line
        elif line.startswith("   ") and blocks:
            blocks[flag] += line
    return {flag: " ".join(text.split()) for flag, text in blocks.items()}


def test_help_lists_config_fields(capsys):
    """Every field but `dataset_dir` and `task`, which the dataset sets,
    has one flag, whose help carries its description and the default each
    protocol resolves to."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    helps = flag_help(out)
    classify, linkpred = (resolve_config(task)
                          for task in ("classify", "linkpred"))
    for setting in fields(RunConfig):
        flag = "--" + setting.name.replace("_", "-")
        if setting.name in ("dataset_dir", "task"):
            assert flag not in out
            continue
        assert out.count(f"  {flag} ") + out.count(f"  {flag},") == 1
        assert " ".join(setting.metadata["help"].split()) in helps[flag]
        ours, theirs = (getattr(c, setting.name) for c in (classify, linkpred))
        assert (f"(default {ours})" if ours == theirs else
                f"(default {ours} classification / {theirs} link prediction)"
                ) in helps[flag]


@pytest.mark.parametrize("make, name, text, where", [
    (small_linkpred, "train.tsv", "n0\tr\tn1\n\n\tr\tn0\n",
     "train.tsv:3: field 1"),
    (small_linkpred, "valid.tsv", "# v\nn0\t\tn1\n", "valid.tsv:2: field 2"),
    (small_linkpred, "test.tsv", "n0\tr\tn1\nb\tr\t", "test.tsv:2: field 3"),
    (small_classify, "labels_train.tsv", "\tred\n",
     "labels_train.tsv:1: field 1"),
    (small_classify, "labels_test.tsv", "n2\tred\nn3\t\n",
     "labels_test.tsv:2: field 2"),
], ids=["head", "relation", "tail", "labeled-entity", "class"])
def test_preprocess_refuses_an_empty_field(tmp_path, capsys, make, name,
                                           text, where):
    d = make(tmp_path / "d")
    with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    assert cli.main(["preprocess", "--dataset", d]) == 2
    assert f"{where} is empty" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "bundle"))


@pytest.mark.parametrize("train, test, where, first", [
    ("a\tX\na\tY\nb\tX\n", "a\tX\nc\tY\n", "labels_train.tsv:2",
     "labels_train.tsv:1"),
    ("# labels\na\tX\n\nb\tX\n", "c\tY\nb\tY\n", "labels_test.tsv:2",
     "labels_train.tsv:4"),
], ids=["in-one-file", "across-files"])
def test_preprocess_refuses_a_repeated_label(tmp_path, capsys, train, test,
                                             where, first):
    root = tmp_path / "d"
    root.mkdir()
    (root / "train.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
    (root / "labels_train.tsv").write_text(train, encoding="utf-8")
    (root / "labels_test.tsv").write_text(test, encoding="utf-8")
    assert cli.main(["preprocess", "--dataset", str(root)]) == 2
    err = capsys.readouterr().err
    assert f"{where}: entity " in err and "labelled again" in err
    assert err.rstrip().endswith(f"{first}")
    assert not (root / "bundle").exists()


def empty_file(name):
    """An edit that truncates a raw dataset file to nothing."""
    def edit(root):
        open(os.path.join(root, name), "w").close()
    return edit


@pytest.mark.parametrize("make, emptied, command, split", [
    (small_linkpred, "train.tsv", "train", "train"),
    (small_classify, "labels_train.tsv", "train", "labels_train"),
    (small_linkpred, "test.tsv", "evaluate", "test"),
    (small_classify, "labels_test.tsv", "evaluate", "labels_test"),
], ids=["linkpred-train", "classify-train", "linkpred-test",
        "classify-test"])
def test_empty_needed_split_is_data_error(tmp_path, capsys, make, emptied,
                                          command, split):
    d = make(tmp_path / "d")
    empty_file(emptied)(d)
    assert cli.main(["preprocess", "--dataset", d]) == 0
    out = tmp_path / "run"
    code = cli.main(["train", "--dataset", d, "--out", str(out)] + FAST)
    if command == "evaluate":
        assert code == 0
        (snap,) = out.glob("snapshot-*.kgar")
        capsys.readouterr()
        code = cli.main(["evaluate", "--snapshot", str(snap), "--dataset", d])
    else:
        assert not out.exists()
    assert code == 2
    assert (f"data error: the {split} split is empty; {command} needs at "
            "least one row") in capsys.readouterr().err


def test_one_entity_linkpred_bundle_is_data_error(tmp_path, capsys):
    # every split is the self-loop (a, r, a): the bundle is valid, but no
    # other entity can corrupt a triple
    d = tmp_path / "d"
    d.mkdir()
    for name in ("train.tsv", "valid.tsv", "test.tsv"):
        (d / name).write_text("a\tr\ta\n", encoding="utf-8")
    assert cli.main(["preprocess", "--dataset", str(d)]) == 0
    out = tmp_path / "run"
    code = cli.main(["train", "--dataset", str(d), "--out", str(out),
                     "--iterations", "2", "--embed-dim", "4",
                     "--num-blocks", "2"])
    assert code == 2
    assert not out.exists()
    assert ("data error: link prediction needs at least 2 entities to "
            "sample negatives; the bundle has 1") in capsys.readouterr().err


@pytest.mark.parametrize("make, emptied", [
    (small_linkpred, "valid.tsv"), (small_classify, "labels_valid.tsv"),
], ids=["linkpred", "classify"])
def test_empty_valid_split_trains_without_validation(tmp_path, make,
                                                     emptied):
    d = make(tmp_path / "d")
    empty_file(emptied)(d)
    assert cli.main(["preprocess", "--dataset", d]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", d, "--out", str(out)] + FAST) == 0
    (log,) = out.glob("loss-*.csv")
    rows = log.read_text().splitlines()
    assert [row.split(",")[2] for row in rows[1:]] == ["", ""]


def test_repro_table_2_desk_missing_dataset_fails(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["repro-table", "2", "--data-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("broken, code", [(False, 0), (True, 2)],
                         ids=["absent", "broken"])
def test_repro_table_full_skips_only_absent_datasets(tmp_path, capsys,
                                                     monkeypatch, broken,
                                                     code):
    # a full-scale table skips a dataset whose directory is absent; one
    # that is present but does not parse is a data error
    monkeypatch.chdir(tmp_path)
    if broken:
        (tmp_path / "aifb").mkdir()
        (tmp_path / "aifb" / "train.tsv").write_text("a\tb\n")
    assert cli.main(["repro-table", "2", "--scale", "full",
                     "--data-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert ("skipping aifb" in err) is not broken
    if broken:
        assert "aifb" in err and not (tmp_path / "table2-full.csv").exists()
    else:
        assert (tmp_path / "table2-full.csv").read_text() \
            == "dataset,accuracy,reference_accuracy\n"


def test_repro_table_refuses_a_dataset_of_the_other_task(tmp_path, capsys):
    small_linkpred(tmp_path / "aifb")
    assert cli.main(["repro-table", "2", "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert ("the table needs a 'classify' dataset; its bundle was "
            "preprocessed for 'linkpred'") in err


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
