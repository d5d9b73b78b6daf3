"""Command-line surface: preprocess, train, evaluate, repro-table.

Exit codes: 0 success, 1 usage, 2 data, 3 numeric failure. Dataset
directories are taken as given paths or resolved under $KGAR_DATA_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import datasets, evaluation, synthetic, training
from .config import RunConfig, parse_config_file, resolve_config
from .data import DataError
from .model import rebuild_params
from .snapshot import SnapshotError, load_snapshot, save_snapshot
from .tensor import NumericFailure

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

# published accuracy / ranking numbers the repro tables compare against
TABLE2_REFERENCE = {"aifb": 98.10, "mutag": 76.56, "bgs": 86.21, "am": 91.34}
TABLE4_REFERENCE = {"fb15k-237": {"mrr_raw": 0.169, "mrr_filtered": 0.260,
                                  "hits1": 0.166, "hits3": 0.277,
                                  "hits10": 0.433}}
TABLE2_DATASETS = {"desk": ("aifb", "mutag"), "full": ("aifb", "mutag", "bgs", "am")}
TABLE4_DATASETS = {"desk": ("synthetic",), "full": ("synthetic", "fb15k-237")}
LINK_METRICS = ("mrr_raw", "mrr_filtered", "hits1", "hits3", "hits10")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_config_flags(parser):
    g = parser.add_argument_group(
        "run configuration",
        "precedence: flag > config file > dataset default > task default")
    arg = g.add_argument
    arg("--task", choices=("classify", "linkpred"),
        help="objective; defaults to the dataset's usual task")
    arg("--embed-dim", type=int, metavar="M",
        help="entity embedding width (default 500, both protocols)")
    arg("--num-layers", type=int, metavar="C",
        help="graph convolution layers (default 2, the link-prediction "
             "protocol's tuned depth)")
    arg("--num-blocks", type=int, metavar="B",
        help="diagonal blocks per relation weight; must divide the layer "
             "widths (default 10)")
    arg("--dropout-attention", type=float, metavar="RATE",
        help="dropout on attention coefficients (default 0.6, tuned on the "
             "classification protocol and reused for link prediction)")
    arg("--dropout-conv", type=float, metavar="RATE",
        help="dropout on pre-activation aggregates (default 0.4 "
             "classification / 0.5 link prediction)")
    arg("--l2", type=float, metavar="COEFF",
        help="L2 penalty coefficient (default 0.0005 classification / "
             "0.01 link prediction)")
    arg("--learning-rate", type=float, metavar="LR",
        help="step size (default 0.01, both protocols)")
    arg("--batch-size", type=int, metavar="N",
        help="sampled positives per iteration for link prediction; "
             "classification always trains full-batch (default 50)")
    arg("--iterations", type=int, metavar="N",
        help="training iterations (default 200 classification / 6000 link "
             "prediction)")
    arg("--seed", type=int, help="RNG seed for init and sampling (default 0)")
    arg("--decoder", choices=("complex", "distmult"),
        help="link-prediction scoring function (default complex)")
    arg("--init", choices=("scaled", "std-normal"),
        help="weight init: variance-scaled normals, or literal N(0,1) "
             "(default scaled)")
    arg("--filtered-negatives", action=argparse.BooleanOptionalAction,
        default=None,
        help="resample corruptions that collide with known triples "
             "(default off)")
    arg("--optimizer", choices=("gd", "adam"),
        help="plain gradient descent or the adam variant (default gd)")
    arg("--eval-interval", type=int, metavar="N",
        help="iterations between validation metrics (default 100)")
    arg("--leaky-slope", type=float, metavar="S",
        help="negative slope of the attention LeakyReLU (default 0.2)")
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file")


_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig))


def _cli_values(args):
    out = {}
    for name in _CONFIG_FIELDS:
        if hasattr(args, name) and getattr(args, name) is not None:
            out[name] = getattr(args, name)
    return out


def _bundle_dir(dataset_dir):
    return os.path.join(dataset_dir, datasets.BUNDLE_DIR)


def _resolve(args):
    return datasets.resolve_dataset_dir(args.dataset)


def _build_config(args, dataset_dir, task):
    file_values = parse_config_file(args.config) if args.config else None
    cli_values = _cli_values(args)
    cli_values["dataset_dir"] = dataset_dir
    cli_values["task"] = task
    return resolve_config(task, datasets.dataset_defaults(
        datasets.dataset_name(dataset_dir)), file_values, cli_values)


def _train_splits(bundle):
    if bundle.task == "classify":
        splits = {"labels_train": bundle.labels["train"]}
        if "valid" in bundle.labels:
            splits["labels_valid"] = bundle.labels["valid"]
        return splits
    valid = bundle.splits["valid"]
    return {"valid": valid,
            "filter_triples": np.concatenate(
                [bundle.graph.triple_array(), valid])}


def _progress(stream):
    def report(iteration, loss, metric):
        extra = "" if metric is None else f"  valid {metric:.4f}"
        print(f"iteration {iteration}  loss {loss:.4f}{extra}", file=stream,
              flush=True)
    return report


def cmd_preprocess(args):
    dataset_dir = _resolve(args)
    if args.keep_all:
        drop = ()
    elif args.drop is not None:
        drop = tuple(args.drop)
    else:
        drop = None  # dataset profile decides
    processed = datasets.preprocess(dataset_dir, drop_names=drop,
                                    dedup=args.dedup)
    out = args.out or _bundle_dir(dataset_dir)
    datasets.write_bundle(out, processed)
    m = processed["manifest"]
    for name in m["unmatched_drop_names"]:
        print(f"warning: drop name {name!r} matched no relation",
              file=sys.stderr)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(m["counts"].items()))
    dropped = (f" ({m['num_relations']} after dropping "
               f"{len(m['dropped_relations'])})"
               if m["dropped_relations"] else "")
    print(f"{m['dataset']}: {m['num_entities']} entities, "
          f"{m['num_relations_raw']} relations{dropped}; {counts}")
    print(f"bundle: {out}")
    return EXIT_OK


def _snapshot_meta(config, bundle):
    meta = {"format": 1, "task": config.task,
            "dataset": bundle.manifest["dataset"],
            "num_entities": bundle.num_entities,
            "num_relations": bundle.num_relations,
            "config": {name: getattr(config, name)
                       for name in _CONFIG_FIELDS}}
    if bundle.task == "classify":
        meta["num_classes"] = bundle.manifest["num_classes"]
    return meta


def cmd_train(args):
    dataset_dir = _resolve(args)
    bundle = datasets.load_bundle(_bundle_dir(dataset_dir))
    task = args.task or bundle.task
    if task != bundle.task:
        raise DataError(f"bundle was preprocessed for task {bundle.task!r}; "
                        f"cannot train {task!r} on it")
    config = _build_config(args, dataset_dir, task)

    out = args.out or os.path.join(dataset_dir, "runs")
    os.makedirs(out, exist_ok=True)
    tag = f"{task}-seed{config.seed}"
    if task == "linkpred":
        tag += f"-{config.decoder}"
    log_path = os.path.join(out, f"loss-{tag}.csv")
    result = training.train(bundle.graph, _train_splits(bundle), config, task,
                            seed=config.seed, log_path=log_path,
                            progress=_progress(sys.stderr))
    snapshot_path = os.path.join(out, f"snapshot-{tag}.kgar")
    save_snapshot(snapshot_path, result.params.all_params(),
                  _snapshot_meta(config, bundle))
    print(f"snapshot: {snapshot_path}")
    print(f"loss log: {log_path}")
    return EXIT_OK


def _check_meta(meta):
    """The snapshot's RunConfig; SnapshotError unless meta describes one
    valid config."""
    missing = [k for k in ("task", "config") if k not in meta]
    if missing:
        raise SnapshotError(f"snapshot meta lacks {', '.join(missing)}")
    config = meta["config"]
    if not isinstance(config, dict):
        raise SnapshotError("snapshot config is not a key/value object")
    unknown = sorted(set(config) - set(_CONFIG_FIELDS))
    absent = [name for name in _CONFIG_FIELDS if name not in config]
    if unknown or absent:
        raise SnapshotError(
            f"snapshot config does not match this version's fields "
            f"(unknown: {', '.join(unknown) or 'none'}; "
            f"missing: {', '.join(absent) or 'none'})")
    try:
        return RunConfig(**config).validate()
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot config is invalid: {exc}")


def _evaluate_bundle(run, params, bundle, task, dataset):
    if task == "classify":
        accuracy = training.evaluate_classification(
            bundle.graph, params, run.encoder_config(),
            bundle.labels["test"])
        return evaluation.classify_report(accuracy, dataset)
    test = bundle.splits["test"]
    known = evaluation.FilterIndex(np.concatenate(
        [bundle.graph.triple_array(), bundle.splits["valid"], test]))
    results = training.evaluate_links(bundle.graph, params,
                                      run.encoder_config(),
                                      run.decoder, test, known)
    return evaluation.link_report(results, dataset)


def cmd_evaluate(args):
    dataset_dir = _resolve(args)
    bundle = datasets.load_bundle(_bundle_dir(dataset_dir))
    meta, arrays, _ = load_snapshot(args.snapshot)
    run = _check_meta(meta)
    task = args.task or meta["task"]
    if task != meta["task"]:
        raise DataError(f"snapshot was trained for task {meta['task']!r}; "
                        f"cannot evaluate it as {task!r}")
    if task != bundle.task:
        raise DataError(f"bundle was preprocessed for task {bundle.task!r}; "
                        f"cannot evaluate a {task!r} snapshot on it")
    params = rebuild_params(arrays, run.encoder_config(), task, run.decoder,
                            bundle.num_entities, bundle.num_relations,
                            bundle.manifest.get("num_classes"))
    report = _evaluate_bundle(run, params, bundle, task,
                              bundle.manifest["dataset"])
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(evaluation.report_csv(report))
        print(f"csv: {args.csv}", file=sys.stderr)
    return EXIT_OK


def _repro_prepare(name, data_dir):
    """Resolve (and for the synthetic graph, create) one table dataset."""
    path = os.path.join(data_dir, name)
    if name == "synthetic":
        synthetic.ensure_dataset(path)
    if not os.path.isdir(path):
        raise DataError(f"dataset directory not found: {path}")
    bundle_dir = _bundle_dir(path)
    if not all(os.path.exists(os.path.join(bundle_dir, name))
               for name in (datasets.MANIFEST, datasets.TRAIN_IDS)):
        datasets.write_bundle(bundle_dir, datasets.preprocess(path))
    return path, datasets.load_bundle(bundle_dir)


def _repro_train_eval(path, bundle, task, seed, decoder="complex"):
    config = resolve_config(
        task, datasets.dataset_defaults(datasets.dataset_name(path)),
        None, {"dataset_dir": path, "seed": seed, "decoder": decoder})
    result = training.train(bundle.graph, _train_splits(bundle), config, task,
                            seed=seed, progress=_progress(sys.stderr))
    return _evaluate_bundle(config, result.params, bundle, task,
                            bundle.manifest["dataset"])


def _table2_rows(scale, data_dir, seed):
    rows = []
    for name in TABLE2_DATASETS[scale]:
        try:
            path, bundle = _repro_prepare(name, data_dir)
        except DataError:
            if scale == "desk":
                raise
            print(f"warning: skipping {name} (dataset not found)",
                  file=sys.stderr)
            continue
        report = _repro_train_eval(path, bundle, "classify", seed)
        rows.append((name, f"{report['accuracy']:.2f}",
                     f"{TABLE2_REFERENCE[name]:.2f}"))
    return ["dataset,accuracy,reference_accuracy"] + [
        ",".join(r) for r in rows]


def _table4_rows(scale, data_dir, seed):
    header = ("dataset,decoder," + ",".join(LINK_METRICS) + ","
              + ",".join(f"reference_{m}" for m in LINK_METRICS))
    rows = []
    for name in TABLE4_DATASETS[scale]:
        try:
            path, bundle = _repro_prepare(name, data_dir)
        except DataError:
            if scale == "desk":
                raise
            print(f"warning: skipping {name} (dataset not found)",
                  file=sys.stderr)
            continue
        reference = TABLE4_REFERENCE.get(name, {})
        for decoder in ("complex", "distmult"):
            report = _repro_train_eval(path, bundle, "linkpred", seed,
                                       decoder)
            measured = [f"{report[m]:.6f}" for m in LINK_METRICS]
            refs = [f"{reference[m]:.3f}" if m in reference else ""
                    for m in LINK_METRICS]
            rows.append(",".join([name, decoder] + measured + refs))
    if scale == "desk":
        # published full-scale numbers, shown for orientation only
        refs = [f"{TABLE4_REFERENCE['fb15k-237'][m]:.3f}"
                for m in LINK_METRICS]
        rows.append(",".join(["fb15k-237", "complex"] + [""] * 5 + refs))
    return [header] + rows


def cmd_repro_table(args):
    data_dir = args.data_dir or os.environ.get(datasets.DATA_DIR_ENV) or "."
    if args.table == "2":
        lines = _table2_rows(args.scale, data_dir, args.seed)
    elif args.table == "4":
        lines = _table4_rows(args.scale, data_dir, args.seed)
    else:
        raise UsageError(f"unknown table {args.table!r}: choose 2 or 4")
    out = args.out or f"table{args.table}-{args.scale}.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"csv: {out}", file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="kgar",
                     description="Attention-weighted relational graph "
                                 "convolution for entity classification and "
                                 "link prediction.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("preprocess", parents=[], help="turn a raw dataset "
                       "directory into a cached id-mapped bundle")
    p.add_argument("--dataset", required=True,
                   help="dataset directory or name under $KGAR_DATA_DIR")
    p.add_argument("--drop", action="append", metavar="RELATION",
                   help="drop this relation (suffix match); repeatable; "
                        "default is the dataset's usual leakage list")
    p.add_argument("--keep-all", action="store_true",
                   help="drop nothing, overriding the dataset default")
    p.add_argument("--dedup", action="store_true",
                   help="drop duplicate triples instead of keeping them")
    p.add_argument("--out", help="bundle directory (default: "
                                 "<dataset>/bundle)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a preprocessed "
                       "bundle; writes a snapshot and a loss log")
    p.add_argument("--dataset", required=True,
                   help="dataset directory or name under $KGAR_DATA_DIR")
    p.add_argument("--out", help="output directory (default: "
                                 "<dataset>/runs)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a snapshot on a bundle's "
                       "test split and emit a metrics report")
    p.add_argument("--snapshot", required=True, help="snapshot file from "
                   "`kgar train`")
    p.add_argument("--dataset", required=True,
                   help="dataset directory or name under $KGAR_DATA_DIR")
    p.add_argument("--task", choices=("classify", "linkpred"),
                   help="must match the snapshot's task (default: from the "
                        "snapshot)")
    p.add_argument("--csv", metavar="FILE", help="also write the report as "
                   "a CSV row")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("repro-table", help="retrain and tabulate published "
                       "results at desk or full scale")
    p.add_argument("table", help="which table to reproduce: 2 "
                   "(classification) or 4 (link prediction)")
    p.add_argument("--scale", choices=("desk", "full"), default="desk",
                   help="desk = AIFB, MUTAG, bundled synthetic graph; "
                        "full adds BGS, AM, FB15K-237 (default desk)")
    p.add_argument("--data-dir", help="dataset root (default: "
                   "$KGAR_DATA_DIR, else the working directory)")
    p.add_argument("--seed", type=int, default=0,
                   help="training seed for every row (default 0)")
    p.add_argument("--out", help="CSV path (default: "
                   "table<N>-<scale>.csv)")
    p.set_defaults(func=cmd_repro_table)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
