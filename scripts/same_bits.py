#!/usr/bin/env python3
"""Hash what four fixed training runs produce, to show that a change keeps
the bits.

Each run trains on the bundled synthetic graph (generated, preprocessed
and loaded in a temporary directory, as `kgar preprocess` and `kgar train`
would) with seed 3, and hashes every iteration's reported loss and then
every parameter's name and bytes. A change that claims the same
arithmetic and the same order must print the same hashes as its parent,
at the same numpy version and BLAS thread settings, which are printed
first because the bits depend on them. Run it as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/same_bits.py

`--iterations N` caps every run at N iterations, for a quick check of the
output; its hashes are not the full runs'.
"""

import argparse
import hashlib
import os
import struct
import sys
import tempfile

import numpy as np

from kgar import cli, datasets, synthetic, training
from kgar.config import resolve_config
from kgar.data import LabelSet

SEED = 3

# name -> (task, settings over the synthetic dataset's defaults)
RUNS = {
    "complex-adam": ("linkpred", dict(
        decoder="complex", optimizer="adam", embed_dim=20, num_layers=2,
        num_blocks=2, dropout_attention=0.1, dropout_conv=0.1,
        iterations=40)),
    "distmult-gd": ("linkpred", dict(
        decoder="distmult", optimizer="gd", learning_rate=1e-4,
        num_layers=2, dropout_attention=0.3, dropout_conv=0.2, l2=1e-6,
        iterations=30)),
    "synthetic-defaults": ("linkpred", dict(iterations=60)),
    "classify-adam": ("classify", dict(
        optimizer="adam", embed_dim=32, num_blocks=4, iterations=30)),
}


def load_graph(root):
    """The bundled synthetic graph, through the preprocessing path."""
    dataset_dir = synthetic.write_dataset(os.path.join(root, "synthetic"))
    bundle_dir = os.path.join(dataset_dir, datasets.BUNDLE_DIR)
    datasets.write_bundle(bundle_dir, datasets.preprocess(dataset_dir))
    return datasets.load_bundle(bundle_dir).graph


def print_environment():
    """Print the numpy version and the BLAS thread variables."""
    print(f"numpy {np.__version__}")
    print("blas " + " ".join(f"{name}={value}"
                             for name, value in cli.blas_env().items()))


def run_hash(graph, task, settings, iterations=None):
    """SHA-256 of the run's reported losses, then its parameters."""
    values = dict(settings, seed=SEED, eval_interval=1)
    if iterations is not None:
        values["iterations"] = min(iterations, values["iterations"])
    defaults = datasets.dataset_defaults("synthetic") \
        if task == "linkpred" else None
    config = resolve_config(task, dataset_defaults=defaults,
                            cli_values=values)
    splits = {}
    if task == "classify":
        # the even ids, labelled id % 3
        ids = np.arange(0, graph.num_entities, 2, dtype=np.int64)
        splits["labels_train"] = LabelSet(entities=ids, classes=ids % 3,
                                          num_classes=3)
    digest = hashlib.sha256()

    def progress(iteration, loss, metric):
        digest.update(struct.pack("<qd", iteration, loss))

    result = training.train(graph, splits, config, task, SEED,
                            progress=progress)
    for p in result.params.all_params():
        digest.update(p.name.encode())
        digest.update(np.ascontiguousarray(p.values).tobytes())
    return digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--iterations", type=int, default=None,
                        help="cap every run at this many iterations")
    args = parser.parse_args(argv)
    print_environment()
    with tempfile.TemporaryDirectory() as root:
        graph = load_graph(root)
    for name, (task, settings) in RUNS.items():
        print(f"{name} {run_hash(graph, task, settings, args.iterations)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
