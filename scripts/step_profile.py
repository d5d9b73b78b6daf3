#!/usr/bin/env python3
"""Time the training steps of one link-prediction run on the bundled
synthetic graph, in this process only.

The run trains the synthetic dataset's defaults (generated, preprocessed
and loaded in a temporary directory, as in `same_bits.py`) with the given
`--seed` for `--iterations` iterations. After each iteration it reads the
process's CPU time and its minor page faults
(`resource.getrusage(RUSAGE_SELF).ru_minflt`). It skips the first
`WARMUP` iterations and prints the least and the median CPU ms per step,
the median minor faults per step and the peak RSS, after the numpy
version and the BLAS thread variables, on which the times depend. Run it
as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/step_profile.py

Per-op times are kgbench's (`kgbench/tracing.py`).
"""

import argparse
import resource
import sys
import tempfile
import time

import numpy as np
from same_bits import load_graph, print_environment

from kgar import datasets, training
from kgar.config import resolve_config

WARMUP = 10


def profile(graph, iterations, seed):
    """(CPU seconds, minor faults) of each iteration after the warm-up."""
    config = resolve_config(
        "linkpred", dataset_defaults=datasets.dataset_defaults("synthetic"),
        cli_values=dict(iterations=iterations, seed=seed, eval_interval=1))
    readings = []

    def progress(iteration, loss, metric):
        readings.append((time.process_time(),
                         resource.getrusage(resource.RUSAGE_SELF).ru_minflt))

    training.train(graph, {}, config, "linkpred", seed, progress=progress)
    steady = np.array(readings[WARMUP - 1:], dtype=np.float64)
    return np.diff(steady, axis=0).T


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--iterations", type=int, default=300,
                        help=f"iterations to train, more than {WARMUP}")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.iterations <= WARMUP:
        parser.error(f"--iterations must be more than {WARMUP}")
    print_environment()
    with tempfile.TemporaryDirectory() as root:
        graph = load_graph(root)
    cpu, faults = profile(graph, args.iterations, args.seed)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"steps {cpu.size} after {WARMUP} warm-up")
    print(f"step_cpu_ms_min {1e3 * cpu.min():.2f}")
    print(f"step_cpu_ms_median {1e3 * np.median(cpu):.2f}")
    print(f"minflt_median {np.median(faults):.0f}")
    print(f"peak_rss_mb {peak:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
