"""scripts/fetch_datasets.py convert-fb15k237: well-formed splits convert
to the link-prediction layout, and a malformed row stops the conversion
before anything is written."""

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
