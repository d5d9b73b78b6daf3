#!/usr/bin/env python3
"""kgar benchmark: one workload per process.

    python3 kgbench/run.py --workload NAME --seed 0 --seconds 25 --trace 0

Generates the workload's inputs from --seed as plain TSV dataset
directories, drives kgar only through its public entry points
(datasets.preprocess / write_bundle / load_bundle, training.train,
snapshot.save_snapshot, and `kgar evaluate` via cli.main in-process),
checks the outputs against a brute-force reference and prints metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A traced run does the untraced pass first and
then a shorter traced one (the workload's least set-ups, one round), so
it can report the tracing overhead and check that tracing changed no
output. kgbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads; one thread keeps runs independent of other
# load on the machine (recorded in every result, never above nproc).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".kgbench_out")
EXIT_NO_PROGRAM = 2

sys.path.insert(0, SRC)

try:
    import numpy as np
    import kgar
    if os.path.dirname(os.path.abspath(kgar.__file__)) != os.path.join(
            SRC, "kgar"):
        raise ImportError(f"found {kgar.__file__} instead")
    from kgar import (cli, config as kconfig, datasets, encoder, model,
                      snapshot, synthetic, training)
    from kgar.tensor import NumericFailure
except ImportError as exc:
    print(f"kgbench: cannot import kgar from {SRC}: {exc}", file=sys.stderr)
    sys.exit(EXIT_NO_PROGRAM)

import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    graph: dict | None  # gen.generate parameters; None = bundled synthetic
    config: dict  # RunConfig values on top of the linkpred defaults
    iterations: int  # training iterations; 0 ranks an untrained snapshot
    warmup: int  # leading iterations left out of the step timings
    setups: int  # minimum set-up repetitions
    setup_cpu_s: float = 2.0  # ...repeated until they took this much CPU
    rounds: int = 1  # minimum rounds (train or initialise, evaluate)
    mrr_floor: float = 0.0  # least filtered test MRR after training


WORKLOADS = {
    w.name: w for w in (
        # MRR 0.395-0.602 over 91 seeds; an untrained model scores ~0.03
        Workload("train-synthetic", None, dict(), iterations=300, warmup=10,
                 setups=5, mrr_floor=0.30),
        Workload("rank-fb15k-size", gen.GRAPHS["rank-fb15k-size"],
                 dict(embed_dim=100, num_layers=2, num_blocks=10),
                 iterations=0, warmup=0, setups=2, rounds=2),
    )
}

# seconds-long variants for the benchmark's own tests
TOY = {
    "train-synthetic": dict(iterations=12, warmup=2, setups=2,
                            setup_cpu_s=0.2, mrr_floor=0.0),
    "rank-fb15k-size": dict(
        graph=dict(gen.GRAPHS["rank-fb15k-size"], num_entities=500,
                   num_relations=20, num_train=5000, num_valid=100,
                   num_test=100),
        setups=2, setup_cpu_s=0.2, rounds=2),
}

END_TO_END = {"setup_s": "s", "step_cpu_ms_min": "ms", "peak_rss_mb": "MB"}

ENCODER_OPS = ("edge_scores", "attention_softmax", "aggregate", "fusion",
               "projections")
# (metric, unit, root kind, span names, mode); each value is the median
# over root instances of the spans' summed time under that root
PER_LAYER = [
    ("data.graph_build_ms", "ms", "setup", ("data.graph_build",), "total"),
    ("data.plan_build_ms", "ms", "setup", ("data.plan",), "total"),
    ("datasets.preprocess_ms", "ms", "setup",
     ("datasets.preprocess", "datasets.write_bundle"), "total"),
    ("datasets.load_bundle_self_ms", "ms", "setup", ("datasets.load_bundle",),
     "self"),
    ("snapshot.save_ms", "ms", "save", ("snapshot.save",), "total"),
    ("snapshot.load_ms", "ms", "evaluate", ("snapshot.load",), "total"),
    ("encoder.encode_ms", "ms", "step", ("encoder.encode",), "total"),
    *[(f"encoder.conv_l{layer}_{d}_ms", "ms", "step",
       (f"encoder.conv_l{layer}_{d}",), "total")
      for layer in (0, 1) for d in ("forward", "backward")],
    *[(f"encoder.{op}_{phase}_ms", "ms", "step",
       (f"encoder.{op}{suffix}",), "total")
      for op in ENCODER_OPS for phase, suffix in (("fwd", ""),
                                                  ("bwd", tracing.BWD))],
    ("tensor.backward_ms", "ms", "step", ("tensor.backward",), "total"),
    ("tensor.optimizer_ms", "ms", "step", ("tensor.optimizer",), "total"),
    ("tensor.tape_ops", "count", "step", (), "closures"),
    ("decoders.sample_negatives_ms", "ms", "step",
     ("decoders.sample_negatives",), "total"),
    ("decoders.score_fwd_ms", "ms", "step", ("decoders.score",), "total"),
    ("decoders.score_bwd_ms", "ms", "step", ("decoders.score" + tracing.BWD,),
     "total"),
    ("evaluation.filter_build_ms", "ms", "evaluate",
     ("evaluation.filter_build",), "total"),
    ("evaluation.rank_ms", "ms", "evaluate", ("evaluation.rank",), "total"),
    ("evaluation.rank_us_per_query", "us", "evaluate", ("evaluation.rank",),
     "per_query"),
    ("training.step_self_ms", "ms", "step", ("training.iteration",), "self"),
    ("cli.evaluate_self_ms", "ms", "evaluate", ("cli.evaluate",), "self"),
]


# ---------------------------------------------------------------------------
# run environment


def _git_rev():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # the checkout is not a git repository


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "kgar", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _last_level_cache_bytes():
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        best = max(best, (level, value))
    return best[1]


def environment(num_entities, config):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    llc = _last_level_cache_bytes()
    feature_bytes = num_entities * config.embed_dim * 8
    return {
        "git_rev": _git_rev(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "llc_bytes": llc,
        "feature_matrix_bytes": feature_bytes,
        "feature_matrix_fits_llc": None if llc is None
        else feature_bytes <= llc,
    }


# ---------------------------------------------------------------------------
# one pass over a workload


def make_inputs(wl, seed, work_dir):
    """Write the workload's raw dataset directory; returns its path."""
    path = os.path.join(work_dir, "synthetic" if wl.graph is None
                        else wl.name)
    if wl.graph is None:
        synthetic.write_dataset(path)  # the bundled graph, fixed seed
    else:
        gen.write_dataset(path, gen.generate(seed, **wl.graph))
    return path


def setup(dataset_dir):
    """`kgar preprocess`, then bundle load and both edge-direction plans."""
    bundle_dir = os.path.join(dataset_dir, datasets.BUNDLE_DIR)
    datasets.write_bundle(bundle_dir, datasets.preprocess(dataset_dir))
    bundle = datasets.load_bundle(bundle_dir)
    bundle.graph.plan("forward")
    bundle.graph.plan("backward")
    return bundle


def evaluate(snapshot_path, dataset_dir):
    """In-process `kgar evaluate`; returns (exit code, report or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["evaluate", "--snapshot", snapshot_path,
                         "--dataset", dataset_dir])
    return code, (json.loads(out.getvalue()) if code == 0 else None)


@dataclasses.dataclass
class Round:
    wall_s: float
    ends: list  # (wall, cpu) clocks at the end of each training iteration
    losses: list
    train_error: str | None
    eval_s: tuple | None  # (wall, cpu) seconds of the evaluate call
    report: tuple | None  # (exit code, report) of the evaluate call
    params: object


@dataclasses.dataclass
class PassResult:
    setup_s: list  # (wall, cpu) seconds per set-up
    rounds: list
    bundle_dir: str
    num_entities: int
    queries: int  # ranking queries per evaluate call
    config: object


def run_round(wl, seed, config, graph, shape, meta, dataset_dir, tracer):
    """Train `wl.iterations` iterations from `seed` (or initialise an
    untrained model), save the snapshot and `kgar evaluate` it once."""
    start = time.perf_counter()
    ends, losses, train_error = [], [], None
    gc.collect()
    if wl.iterations:
        open_iteration = [None]

        def progress(iteration, loss, metric):
            ends.append(clocks())
            losses.append(loss)
            if open_iteration[0] is not None:
                tracer.close(open_iteration[0])
            # the span opened after the k-th end covers iteration k+1
            open_iteration[0] = tracer.open(
                "training.iteration" if len(ends) >= wl.warmup
                else "training.warmup")

        with tracer.span("training.train"):
            try:
                params = training.train(graph, {}, config, "linkpred",
                                        seed=seed, progress=progress).params
            except NumericFailure as exc:
                train_error, params = str(exc), None
            finally:
                # the span opened after the last iteration covers only the
                # loop's epilogue
                if open_iteration[0] is not None:
                    tracer.rename(open_iteration[0], "training.tail")
                    tracer.close(open_iteration[0])
    else:
        params = model.init_params(
            *shape, config.encoder_config(), "linkpred",
            np.random.default_rng(seed), decoder=config.decoder,
            init=config.init)
    if params is None:
        return Round(time.perf_counter() - start, ends, losses, train_error,
                     None, None, None)
    snapshot_path = os.path.join(dataset_dir, "snapshot.kgar")
    snapshot.save_snapshot(snapshot_path, params.all_params(), meta)
    gc.collect()
    with tracer.span("cli.evaluate"):
        t0 = clocks()
        report = evaluate(snapshot_path, dataset_dir)
        eval_s = tuple(b - a for a, b in zip(t0, clocks()))
    return Round(time.perf_counter() - start, ends, losses, train_error,
                 eval_s, report, params)


def run_pass(wl, seed, seconds, dataset_dir, tracer, counts=None):
    """Set up, then repeat rounds (see run_round) until `seconds` have
    passed since the first round began. `counts` = (setups, rounds)
    repeats another pass's repetitions exactly.

    Each timed unit starts after a full garbage collection, and the set-up
    bundle is dropped before the rounds (a training workload keeps only
    its graph), so peak memory and timings do not depend on when earlier
    garbage happens to be collected."""
    setup_s, rounds, bundle = [], [], None
    with tracer.span("bench.run"):
        while (len(setup_s) < counts[0] if counts else
               len(setup_s) < wl.setups
               or (sum(cpu for _, cpu in setup_s) < wl.setup_cpu_s
                   and len(setup_s) < 200)):
            bundle = None
            gc.collect()
            with tracer.span("bench.setup"):
                t0 = clocks()
                bundle = setup(dataset_dir)
                setup_s.append(tuple(b - a for a, b in zip(t0, clocks())))
        config = kconfig.resolve_config(
            "linkpred", datasets.dataset_defaults(
                datasets.dataset_name(dataset_dir)), None,
            dict(wl.config, dataset_dir=dataset_dir, seed=seed,
                 iterations=max(wl.iterations, 1), eval_interval=1))
        shape = (bundle.num_entities, bundle.num_relations)
        meta = {"format": 1, "task": "linkpred",
                "dataset": bundle.manifest["dataset"],
                "num_entities": shape[0], "num_relations": shape[1],
                "config": dataclasses.asdict(config)}
        queries = 2 * len(bundle.splits["test"])
        graph, bundle = (bundle.graph if wl.iterations else None), None
        timed_start = time.perf_counter()
        while (len(rounds) < counts[1] if counts else
               len(rounds) < wl.rounds
               or time.perf_counter() - timed_start < seconds):
            rounds.append(run_round(wl, seed, config, graph, shape, meta,
                                    dataset_dir, tracer))
            if len(rounds) > 1:
                # only the first round's model is checked; keeping more
                # would make peak memory grow with the number of rounds
                rounds[-1].params = None
    return PassResult(setup_s, rounds,
                      os.path.join(dataset_dir, datasets.BUNDLE_DIR),
                      shape[0], queries, config)


# ---------------------------------------------------------------------------
# checks and metrics


def clocks():
    """Wall time, and CPU time of this process, which leaves out time the
    machine gave to other work."""
    return time.perf_counter(), time.process_time()


def step_ms(wl, result):
    """(wall, cpu) milliseconds per step: each round's training iterations
    warmup+1.. (the first has no start mark), or whole evaluate calls."""
    if not wl.iterations:
        return [tuple(1000.0 * t for t in r.eval_s) for r in result.rounds
                if r.eval_s]
    steps = []
    for r in result.rounds:
        ends = r.ends[max(wl.warmup, 1) - 1:]
        steps += [(1000.0 * (b[0] - a[0]), 1000.0 * (b[1] - a[1]))
                  for a, b in zip(ends, ends[1:])]
    return steps


def check(wl, result):
    """(attempted, failed, problems) for one untraced pass.

    Operations are training iterations and ranking queries; a failed check
    marks the operations it covers as failed. Every round starts from the
    same seed, so later rounds must repeat the first one's losses exactly.
    """
    problems, failed = [], 0
    rounds, queries = result.rounds, result.queries
    first = rounds[0]
    attempted = len(rounds) * (wl.iterations + queries)
    if wl.iterations:
        bad = sum(not np.isfinite(x) for x in first.losses)
        bad += wl.iterations - len(first.losses)
        if bad:
            problems.append(f"{bad} iterations without a finite loss"
                            + (f" ({first.train_error})"
                               if first.train_error else ""))
            failed += bad
        elif not first.losses[-1] < first.losses[0]:
            problems.append("final loss not below the first")
            failed += 1
        for k, r in enumerate(rounds[1:], 1):
            if not np.array_equal(r.losses, first.losses, equal_nan=True):
                problems.append(f"round {k} did not repeat round 0's losses")
                failed += wl.iterations
    params = first.params
    if params is None:
        return (attempted, failed + queries * len(rounds),
                problems + ["nothing to rank"])
    bundle = datasets.load_bundle(result.bundle_dir)
    graph, test = bundle.graph, bundle.splits["test"]
    feats = encoder.encode(graph, params,
                           result.config.encoder_config()).values
    known = np.concatenate([np.stack([graph.heads, graph.rels, graph.tails],
                                     axis=1),
                            bundle.splits["valid"], test]).tolist()
    expected = reference.report(*reference.ranks(
        feats, params.rel_re.values, params.rel_im.values, test, known))
    if expected["mrr_filtered"] < wl.mrr_floor:
        # training that no longer learns: a wrong gradient or update
        problems.append(f"filtered MRR {expected['mrr_filtered']:.4f} of "
                        f"the trained model is below {wl.mrr_floor}")
        failed += wl.iterations
    for k, r in enumerate(rounds):
        if r.report is None:
            broken = ["no model to evaluate"]
        elif r.report[0] != 0:
            broken = [f"kgar evaluate exited {r.report[0]}"]
        else:
            broken = reference.law_violations(r.report[1]) + [
                f"{key} differs from the brute-force reference"
                for key in reference.mismatches(r.report[1], expected)]
        if broken:
            problems.append(f"round {k}: " + "; ".join(broken))
            failed += queries
    return attempted, failed, problems


def end_to_end(wl, result):
    """End-to-end metrics, and more figures for the record line.

    The set-up time is the median CPU time of the run's set-ups. The step
    time is the least CPU time over the run's steps (best of N), not their
    median: kgbench/README.md ("Why best of N") gives the reason. The
    step median and p90 go to the record line.
    """
    def median(pairs, which):
        return statistics.median(p[which] for p in pairs) if pairs else None

    steps = step_ms(wl, result)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": median(result.setup_s, 1),
              "step_cpu_ms_min": min((cpu for _, cpu in steps), default=None),
              "peak_rss_mb": rss_mb}
    details = {"setup_reps": len(result.setup_s),
               "setup_s_min": min(cpu for _, cpu in result.setup_s),
               "setup_wall_s_p50": median(result.setup_s, 0),
               "step_samples": len(steps),
               "step_cpu_ms_p50": median(steps, 1),
               "step_wall_ms_p50": median(steps, 0),
               "rounds": len(result.rounds),
               "eval_wall_s_p50": median(
                   [r.eval_s for r in result.rounds if r.eval_s], 0)}
    if len(steps) >= 100:  # ten samples beyond p90
        details["step_cpu_ms_p90"] = statistics.quantiles(
            [cpu for _, cpu in steps], n=10)[-1]
        details["step_wall_ms_p90"] = statistics.quantiles(
            [wall for wall, _ in steps], n=10)[-1]
    return values, details


def per_layer(wl, tracer, queries):
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    step_root = "training.iteration" if wl.iterations else "cli.evaluate"

    def roots(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    groups = {kind: tracing.descendants_by_root(spans, idx) for kind, idx in (
        ("setup", roots("bench.setup")),
        ("evaluate", roots("cli.evaluate")),
        ("save", roots("snapshot.save")),
        ("step", roots(step_root)))}
    values = {}
    for metric, unit, kind, names, mode in PER_LAYER:
        samples = []
        for root, members in groups[kind].items():
            members = [root] + members
            if mode == "closures":
                samples.append(sum(spans[i][0].endswith(tracing.BWD)
                                   for i in members))
                continue
            chosen = [i for i in members if spans[i][0] in names]
            if mode == "self":
                ms = 1000.0 * sum(selfs[i] for i in chosen)
            else:
                ms = 1000.0 * sum(spans[i][2] - spans[i][1] for i in chosen)
            samples.append(1000.0 * ms / queries if mode == "per_query"
                           else ms)
        values[metric] = (statistics.median(samples) if samples else 0.0,
                          unit)
    return values


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time spent training and evaluating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="seconds-long inputs, for the benchmark's tests")
    parser.add_argument("--out-dir", default=OUT_DIR,
                        help="generated inputs (removed) and trace files")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.toy:
        wl = dataclasses.replace(wl, **TOY[wl.name])
    os.makedirs(args.out_dir, exist_ok=True)
    work_dir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    try:
        dataset_dir = make_inputs(wl, args.seed, work_dir)
        untraced = run_pass(wl, args.seed, args.seconds, dataset_dir,
                            tracing.NullTracer())
        values, details = end_to_end(wl, untraced)
        attempted, failed, problems = check(wl, untraced)
        env = environment(untraced.num_entities, untraced.config)
        if args.trace:
            tracer = tracing.Tracer(f"{wl.name}-seed{args.seed}-{os.getpid()}")
            # the workload's least repetitions: enough for per-layer
            # medians, and a traced run stays within twice an untraced one
            with tracing.installed(tracer):
                traced = run_pass(wl, args.seed, args.seconds, dataset_dir,
                                  tracer, counts=(wl.setups, 1))
            queries = untraced.queries
            values = per_layer(wl, tracer, queries)
            attempted += len(traced.rounds) * (wl.iterations + queries)
            for k, (t, u) in enumerate(zip(traced.rounds, untraced.rounds)):
                if not (np.array_equal(t.losses, u.losses, equal_nan=True)
                        and t.report == u.report):
                    problems.append(f"round {k}: the traced run changed the "
                                    "loss sequence or the evaluation report")
                    failed += wl.iterations + queries
            # every span nests under bench.run, so the self times add up
            # to the traced pass's wall time by construction; the overhead
            # is that of one round, traced against untraced
            untraced_s = untraced.rounds[0].wall_s
            traced_s = traced.rounds[0].wall_s
            details.update({
                "untraced_round_s": untraced_s, "traced_round_s": traced_s,
                "tracing_overhead_s": traced_s - untraced_s,
                "tracing_overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
                "spans": len(tracer.spans)})
            trace_path = os.path.join(
                args.out_dir, f"trace-{wl.name}-seed{args.seed}.json")
            tracer.write(trace_path, {"env": env, "details": details})
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            values = {k: (v, END_TO_END[k]) for k, v in values.items()}
        first = untraced.rounds[0]
        if first.report and first.report[1]:
            details["mrr_filtered"] = first.report[1]["mrr_filtered"]
        if first.losses:
            details["loss_first"] = first.losses[0]
            details["loss_last"] = first.losses[-1]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# kgbench {wl.name} seed={args.seed} trace={args.trace}"
          f"{' toy' if args.toy else ''}")
    for name, (value, unit) in values.items():
        print(f"{name:36s} {value!r:>24} {unit}")
    print(json.dumps({"env": env, "details": details, "problems": problems}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
