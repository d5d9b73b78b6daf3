"""scripts/step_profile.py: the numpy version, the BLAS thread variables,
then the steady-state step figures of one synthetic run."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_step_profile_prints_the_steady_steps(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "step_profile", SCRIPTS / "step_profile.py")
    step_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_profile)
    assert step_profile.main(["--iterations", "14", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"numpy {np.__version__}"
    assert re.fullmatch(r"blas OPENBLAS_NUM_THREADS=\S* "
                        r"OMP_NUM_THREADS=\S* MKL_NUM_THREADS=\S*", lines[1])
    assert lines[2] == f"steps 4 after {step_profile.WARMUP} warm-up"
    figures = dict(line.split(" ") for line in lines[3:])
    assert list(figures) == ["step_cpu_ms_min", "step_cpu_ms_median",
                             "minflt_median", "peak_rss_mb"]
    values = {name: float(value) for name, value in figures.items()}
    assert 0 < values["step_cpu_ms_min"] <= values["step_cpu_ms_median"]
    assert values["minflt_median"] >= 0 and values["peak_rss_mb"] > 0
    with pytest.raises(SystemExit):
        step_profile.main(["--iterations", str(step_profile.WARMUP)])
