"""scripts/fetch_datasets.py: well-formed FB15K-237 splits and RDF label
files convert to the expected layouts, and a malformed row stops the
conversion before anything is written."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"


@pytest.fixture(scope="module")
def fetch():
    spec = importlib.util.spec_from_file_location("fetch_datasets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_splits(src, train):
    src.mkdir()
    (src / "train.txt").write_text(train, encoding="utf-8")
    for name in ("valid.txt", "test.txt"):
        (src / name).write_text("/m/a\t/r/x\t/m/b\n", encoding="utf-8")


def test_convert_skips_blank_lines(fetch, tmp_path):
    write_splits(tmp_path / "src",
                 "/m/a\t/r/x\t/m/b\n\n  \n/m/b\t/r/y\t/m/c\n")
    out = tmp_path / "out"
    assert fetch.main(["convert-fb15k237", "--src", str(tmp_path / "src"),
                       "--out", str(out)]) == 0
    assert (out / "train.tsv").read_text(encoding="utf-8") == \
        "/m/a\t/r/x\t/m/b\n/m/b\t/r/y\t/m/c\n"
    assert (out / "test.tsv").read_text(encoding="utf-8") == \
        "/m/a\t/r/x\t/m/b\n"


@pytest.mark.parametrize("bad, fields", [("/m/a\t/r/x", 2),
                                          ("/m/a\t/r/x\t/m/b\t/m/c", 4)],
                         ids=["two-fields", "four-fields"])
def test_convert_names_a_malformed_row(fetch, tmp_path, bad, fields):
    src = tmp_path / "src"
    write_splits(src, f"/m/a\t/r/x\t/m/b\n\n{bad}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        fetch.main(["convert-fb15k237", "--src", str(src), "--out", str(out)])
    assert str(info.value) == (f"{src / 'train.txt'}:3: expected 3 "
                               f"tab-separated fields, got {fields}")
    assert not out.exists()


def test_convert_names_a_split_that_is_not_utf8(fetch, tmp_path):
    src = tmp_path / "src"
    write_splits(src, "/m/a\t/r/x\t/m/b\n")
    (src / "valid.txt").write_bytes(b"/m/a\t/r/\xff\t/m/b\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        fetch.main(["convert-fb15k237", "--src", str(src), "--out", str(out)])
    assert str(info.value).startswith(f"{src / 'valid.txt'}: not UTF-8 text")
    assert not out.exists()


def write_rdf_inputs(src, labels_test):
    src.mkdir()
    (src / "graph.nt").write_text(
        '<http://x/a> <http://x/p> "one\tlabel" .\n', encoding="utf-8")
    (src / "train.tsv").write_text("id\tperson\tlabel\n1\t/a\tx\n",
                                   encoding="utf-8")
    (src / "test.tsv").write_text(labels_test, encoding="utf-8")
    return ["convert-rdf", "--graph", str(src / "graph.nt"),
            "--labels-train", str(src / "train.tsv"),
            "--labels-test", str(src / "test.tsv"),
            "--entity-column", "person", "--label-column", "label"]


def test_convert_rdf_writes_the_classification_layout(fetch, tmp_path):
    argv = write_rdf_inputs(tmp_path / "src",
                            "id\tperson\tlabel\n\n2\t/b\ty\n")
    out = tmp_path / "out"
    assert fetch.main(argv + ["--out", str(out)]) == 0
    assert (out / "train.tsv").read_text(encoding="utf-8") == \
        "http://x/a\thttp://x/p\tone label\n"
    assert (out / "labels_train.tsv").read_text(encoding="utf-8") == \
        "/a\tx\n"
    assert (out / "labels_test.tsv").read_text(encoding="utf-8") == \
        "/b\ty\n"


def test_convert_rdf_names_a_short_label_row(fetch, tmp_path):
    src = tmp_path / "src"
    argv = write_rdf_inputs(src, "id\tperson\tlabel\n2\t/b\ty\n3\t/c\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        fetch.main(argv + ["--out", str(out)])
    assert str(info.value) == (f"{src / 'test.tsv'}:3: fewer tab-separated "
                               f"fields than the header's 3")
    assert not out.exists()


@pytest.mark.parametrize("name", ["graph.nt", "train.tsv", "test.tsv"])
def test_convert_rdf_names_an_input_that_is_not_utf8(fetch, tmp_path, name):
    src = tmp_path / "src"
    argv = write_rdf_inputs(src, "id\tperson\tlabel\n2\t/b\ty\n")
    path = src / name
    path.write_bytes(path.read_bytes().replace(b"/", b"\xff", 1))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        fetch.main(argv + ["--out", str(out)])
    assert str(info.value).startswith(f"{path}: not UTF-8 text")
    assert not out.exists()
