"""Command-line surface: preprocess, train, evaluate, repro-table.

Exit codes: 0 success, 1 usage, 2 data, 3 numeric failure. Dataset
directories are taken as given paths or resolved under $KGAR_DATA_DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import datasets, evaluation, synthetic, training
from .config import (CHOICES, FIELD_TYPES, LINKPRED_DEFAULTS, RunConfig,
                     parse_config_file, resolve_config)
from .data import DataError
from .model import DECODERS, rebuild_params
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
# same-seed runs give the same bits only at the same BLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def blas_env():
    """The BLAS thread variables as this process sees them, '' if unset."""
    return {name: os.environ.get(name, "") for name in BLAS_THREAD_VARIABLES}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _help(setting):
    """A setting's description and its default under each protocol."""
    text = setting.metadata["help"]
    classify = setting.default
    linkpred = LINKPRED_DEFAULTS.get(setting.name, classify)
    if classify == linkpred:
        return f"{text} (default {classify})"
    return (f"{text} (default {classify} classification / {linkpred} link "
            "prediction)")


# the RunConfig fields that --dataset sets: the directory and its
# bundle's task
DATASET_FIELDS = ("dataset_dir", "task")


def _add_config_flags(parser):
    """One flag per RunConfig field but the DATASET_FIELDS."""
    g = parser.add_argument_group(
        "run configuration",
        "precedence: flag > config file > dataset default > task default")
    for setting in fields(RunConfig):
        if setting.name in DATASET_FIELDS:
            continue
        flag = "--" + setting.name.replace("_", "-")
        kind = FIELD_TYPES[setting.name]
        if kind is bool:
            g.add_argument(flag, action=argparse.BooleanOptionalAction,
                           default=None, help=_help(setting))
        else:
            g.add_argument(flag, type=kind, choices=CHOICES.get(setting.name),
                           help=_help(setting))
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file")


def _cli_values(args):
    return {name: getattr(args, name) for name in FIELD_TYPES
            if getattr(args, name, None) is not None}


def _bundle_dir(dataset_dir):
    return os.path.join(dataset_dir, datasets.BUNDLE_DIR)


def _resolve(args):
    return datasets.resolve_dataset_dir(args.dataset)


def _build_config(args, dataset_dir, task):
    file_values = parse_config_file(args.config) if args.config else {}
    for name in DATASET_FIELDS:
        if name in file_values:
            raise UsageError(f"{args.config}: a config file may not set "
                             f"{name}; --dataset sets it")
    cli_values = dict(_cli_values(args), dataset_dir=dataset_dir, task=task)
    return resolve_config(task, datasets.dataset_defaults(
        datasets.dataset_name(dataset_dir)), file_values, cli_values)


def _nonempty(rows, split, command):
    if not len(rows):
        raise DataError(f"the {split} split is empty; {command} needs at "
                        "least one row")


def _train_splits(bundle):
    if bundle.task == "classify":
        _nonempty(bundle.labels["train"].entities, "labels_train", "train")
        splits = {"labels_train": bundle.labels["train"]}
        if "valid" in bundle.labels:
            splits["labels_valid"] = bundle.labels["valid"]
        return splits
    _nonempty(bundle.graph.triple_array(), "train", "train")
    if bundle.num_entities < 2:
        raise DataError("link prediction needs at least 2 entities to sample "
                        f"negatives; the bundle has {bundle.num_entities}")
    return {"valid": bundle.splits["valid"]}


def _progress(stream, log=None):
    """The training record's one sink: a progress line on `stream` and,
    given an open loss log, the same interval as a flushed CSV row."""
    def report(iteration, loss, metric):
        extra = "" if metric is None else f"  valid {metric:.4f}"
        print(f"iteration {iteration}  loss {loss:.4f}{extra}", file=stream,
              flush=True)
        if log is not None:
            valid = "" if metric is None else f"{metric:.6f}"
            log.write(f"{iteration},{loss:.6f},{valid}\n")
            log.flush()
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


def cmd_train(args):
    dataset_dir = _resolve(args)
    bundle = datasets.load_bundle(_bundle_dir(dataset_dir))
    config = _build_config(args, dataset_dir, bundle.task)
    splits = _train_splits(bundle)

    out = args.out or os.path.join(dataset_dir, "runs")
    os.makedirs(out, exist_ok=True)
    tag = f"{config.task}-seed{config.seed}"
    if config.task == "linkpred":
        tag += f"-{config.decoder}"
    # the log records each finished interval as it goes; only the
    # snapshot marks a finished run; a snapshot left from an earlier run
    # would sit beside this run's log as if this run had finished
    log_path = os.path.join(out, f"loss-{tag}.csv")
    snapshot_path = os.path.join(out, f"snapshot-{tag}.kgar")
    with open(log_path, "w", encoding="utf-8") as log:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(snapshot_path)
        log.write("iteration,loss,valid_metric\n")
        result = training.train(bundle.graph, splits, config, config.task,
                                seed=config.seed,
                                progress=_progress(sys.stderr, log))
    save_snapshot(snapshot_path, result.params.all_params(),
                  {"dataset": bundle.manifest["dataset"],
                   "config": asdict(config), "numpy": np.__version__,
                   "blas_env": blas_env()})
    print(f"snapshot: {snapshot_path}")
    print(f"loss log: {log_path}")
    return EXIT_OK


def _check_meta(meta):
    """The snapshot's RunConfig; SnapshotError unless meta describes one
    valid config."""
    if "config" not in meta:
        raise SnapshotError("snapshot meta lacks config")
    config = meta["config"]
    if not isinstance(config, dict):
        raise SnapshotError("snapshot config is not a key/value object")
    unknown = sorted(set(config) - set(FIELD_TYPES))
    absent = [name for name in FIELD_TYPES if name not in config]
    if unknown or absent:
        raise SnapshotError(
            f"snapshot config does not match this version's fields "
            f"(unknown: {', '.join(unknown) or 'none'}; "
            f"missing: {', '.join(absent) or 'none'})")
    try:
        return RunConfig(**config)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot config is invalid: {exc}")


def _evaluate_bundle(run, params, bundle):
    dataset = bundle.manifest["dataset"]
    if run.task == "classify":
        test = bundle.labels["test"]
        _nonempty(test.entities, "labels_test", "evaluate")
        accuracy = training.evaluate_classification(bundle.graph, params,
                                                    run, test)
        return evaluation.classify_report(accuracy, dataset)
    test = bundle.splits["test"]
    _nonempty(test, "test", "evaluate")
    known = evaluation.FilterIndex(np.concatenate(
        [bundle.graph.triple_array(), bundle.splits["valid"], test]),
        bundle.num_entities, bundle.num_relations)
    results = training.evaluate_links(bundle.graph, params, run, test, known)
    return evaluation.link_report(results, dataset)


def cmd_evaluate(args):
    dataset_dir = _resolve(args)
    bundle = datasets.load_bundle(_bundle_dir(dataset_dir))
    meta, arrays = load_snapshot(args.snapshot)
    run = _check_meta(meta)
    if run.task != bundle.task:
        raise DataError(f"bundle was preprocessed for task {bundle.task!r}; "
                        f"cannot evaluate a {run.task!r} snapshot on it")
    params = rebuild_params(arrays, run, bundle.num_entities,
                            bundle.num_relations,
                            bundle.manifest.get("num_classes"))
    report = _evaluate_bundle(run, params, bundle)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(evaluation.report_csv(report))
        print(f"csv: {args.csv}", file=sys.stderr)
    return EXIT_OK


def _repro_prepare(name, data_dir):
    """Resolve (and for the synthetic graph, create) one table dataset, and
    rebuild its bundle from the raw files as `kgar preprocess --dataset
    NAME` would, so that no bundle left on disk, one preprocessed with
    other drop names say, feeds the table."""
    path = os.path.join(data_dir, name)
    if name == "synthetic":
        synthetic.ensure_dataset(path)
    if not os.path.isdir(path):
        raise DataError(f"dataset directory not found: {path}")
    bundle_dir = _bundle_dir(path)
    datasets.write_bundle(bundle_dir, datasets.preprocess(path))
    return path, datasets.load_bundle(bundle_dir)


def _repro_train_eval(path, bundle, task, seed, decoder=None):
    if bundle.task != task:
        raise DataError(f"{path}: the table needs a {task!r} dataset; its "
                        f"bundle was preprocessed for {bundle.task!r}")
    config = resolve_config(
        task, datasets.dataset_defaults(datasets.dataset_name(path)),
        None, {"dataset_dir": path, "seed": seed, "decoder": decoder})
    result = training.train(bundle.graph, _train_splits(bundle), config, task,
                            seed=seed, progress=_progress(sys.stderr))
    return _evaluate_bundle(config, result.params, bundle)


def _repro_datasets(names, scale, data_dir):
    """(name, path, bundle) for each table dataset, in order. At full scale
    a dataset whose directory is absent is skipped with a warning; any
    other data error stands."""
    for name in names:
        try:
            path, bundle = _repro_prepare(name, data_dir)
        except DataError:
            if scale == "desk" or os.path.isdir(os.path.join(data_dir, name)):
                raise
            print(f"warning: skipping {name} (dataset not found)",
                  file=sys.stderr)
            continue
        yield name, path, bundle


def _table2_rows(scale, data_dir, seed):
    rows = []
    for name, path, bundle in _repro_datasets(TABLE2_DATASETS[scale], scale,
                                              data_dir):
        report = _repro_train_eval(path, bundle, "classify", seed)
        rows.append((name, f"{report['accuracy']:.2f}",
                     f"{TABLE2_REFERENCE[name]:.2f}"))
    return ["dataset,accuracy,reference_accuracy"] + [
        ",".join(r) for r in rows]


def _table4_rows(scale, data_dir, seed):
    header = ("dataset,decoder," + ",".join(LINK_METRICS) + ","
              + ",".join(f"reference_{m}" for m in LINK_METRICS))
    rows = []
    for name, path, bundle in _repro_datasets(TABLE4_DATASETS[scale], scale,
                                              data_dir):
        reference = TABLE4_REFERENCE.get(name, {})
        for decoder in DECODERS:
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
    rows = _table2_rows if args.table == "2" else _table4_rows
    lines = rows(args.scale, data_dir, args.seed)
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
    p.add_argument("--csv", metavar="FILE", help="also write the report as "
                   "a CSV row")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("repro-table", help="retrain and tabulate published "
                       "results at desk or full scale")
    p.add_argument("table", choices=("2", "4"), help="which table to "
                   "reproduce: 2 (classification) or 4 (link prediction)")
    p.add_argument("--scale", choices=("desk", "full"), default="desk",
                   help="desk = AIFB, MUTAG, bundled synthetic graph; "
                        "full adds BGS, AM, FB15K-237 (default %(default)s)")
    p.add_argument("--data-dir", help="dataset root (default: "
                   "$KGAR_DATA_DIR, else the working directory)")
    p.add_argument("--seed", type=int, default=RunConfig.seed,
                   help="training seed for every row (default %(default)s)")
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
