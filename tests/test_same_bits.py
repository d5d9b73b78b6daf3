"""scripts/same_bits.py: the numpy version, the BLAS thread variables, then
one hash per fixed training run."""

import importlib.util
import re
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_bits.py"


def test_same_bits_prints_one_hash_per_run(capsys):
    spec = importlib.util.spec_from_file_location("same_bits", SCRIPT)
    same_bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bits)
    hashes = []
    for argv in ([], ["--iterations", "1"]):
        assert same_bits.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"numpy {np.__version__}"
        assert re.fullmatch(r"blas OPENBLAS_NUM_THREADS=\S* "
                            r"OMP_NUM_THREADS=\S* MKL_NUM_THREADS=\S*",
                            lines[1])
        runs = dict(line.split(" ") for line in lines[2:])
        assert list(runs) == list(same_bits.RUNS)
        assert all(re.fullmatch("[0-9a-f]{16}", h) for h in runs.values())
        hashes.append(runs)
    # every hash covers the training, not only the initial parameters
    full, short = hashes
    assert all(full[name] != short[name] for name in full)
