"""tailfocal benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload desk_compare --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The package is imported from `src/` of
that checkout and nowhere else; without it the run exits with code 1.

A run is a series of rounds, each one or more set-ups followed by one timed
call. --trace 0 reports the end-to-end metrics: set-up time (median over the
set-ups, each an interpreter start and import plus the workload's data
generation and init), the median wall time of the timed call, items per
second, and peak RSS. --trace 1 wraps the public functions of datagen,
experiments, fusion, losses and metrics for every second round, and reports
per-layer times and counts from the spans of the traced rounds, and the
tracing overhead against the plain calls in between. Each call's output is
checked, untraced; a failed check or an exception counts the call as failed. The last stdout line is the result
JSON; the line before it records the environment. Spans, environment and
result are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans as sp

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

LAYERS = ("datagen", "experiments", "fusion", "losses", "metrics")
# untraced, each round repeats its set-up until this much time is spent on it
SETUP_ROUND_S = 1.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_CODE = f"import sys; sys.path.insert(0, {SRC!r}); import tailfocal"

# per-call span timings reported as a distribution, by metric name
DISTRIBUTIONS = {
    "fusion.forward_ms": ("fusion.forward", "fusion.train"),
    "fusion.predict_forward_ms": ("fusion.forward", "fusion.predict_proba"),
    "fusion.backward_ms": ("fusion.backward", None),
    "losses.batch_loss_ms": ("losses.batch_loss", None),
}
# per-call span timings reported as a median, by metric name
MEDIANS = {
    "fusion.predict_proba_s": "fusion.predict_proba",
    "metrics.metrics_report_s": "metrics.metrics_report",
    "metrics.roc_auc_ovr_s": "metrics.roc_auc_ovr",
    "metrics.pr_auc_ovr_s": "metrics.pr_auc_ovr",
    "datagen.generate_dataset_s": "datagen.generate_dataset",
    "datagen.records_to_arrays_s": "datagen.records_to_arrays",
    "datagen.write_dataset_s": "datagen.write_dataset",
    "datagen.read_dataset_s": "datagen.read_dataset",
    "experiments.load_run_data_s": "experiments.load_run_data",
    "experiments.split_indices_s": "experiments.split_indices",
}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "tailfocal", "__init__.py")):
        sys.exit(f"bench: no tailfocal package under {SRC}")
    sys.path.insert(0, SRC)
    import tailfocal

    if os.path.dirname(os.path.dirname(os.path.abspath(tailfocal.__file__))) != SRC:
        sys.exit(f"bench: imported tailfocal from {tailfocal.__file__}, not {SRC}")
    return tailfocal


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def time_import() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True)
    return time.perf_counter() - t0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(spans, op_roots: list[int], traced: list[float], plain: list[float], counts: dict) -> dict:
    selfs = sp.self_times(spans)
    names = [s[sp.NAME] for s in spans]
    top = sp.roots(spans)
    in_op = set(op_roots)
    n_ops = len(op_roots)

    def parent_of(s):
        return names[s[sp.PARENT]] if s[sp.PARENT] >= 0 else None

    def durations(name, parent_name=None):
        return [
            (s[sp.END] - s[sp.START])
            for s in spans
            if s[sp.NAME] == name and (parent_name is None or parent_of(s) == parent_name)
        ]

    def per_op(name, parent_name=None) -> float:
        hits = sum(
            1
            for i, s in enumerate(spans)
            if top[i] in in_op and s[sp.NAME] == name
            and (parent_name is None or parent_of(s) == parent_name)
        )
        return hits / n_ops

    out = {}
    for key, (name, parent_name) in DISTRIBUTIONS.items():
        dist = sp.distribution(durations(name, parent_name))
        out[f"{key}.p50"] = metric(dist["p50"] * 1e3, "ms")
        out[f"{key}.tail"] = metric(dist["tail"] * 1e3, "ms")
        out[f"{key}.tail_pct"] = metric(dist["tail_pct"], "percentile")
        out[f"{key}.n"] = metric(dist["n"], "count")
    for key, name in MEDIANS.items():
        vals = durations(name)
        out[key] = metric(statistics.median(vals) if vals else 0.0, "s")

    train_self = sum(t for t, n in zip(selfs, names) if n == "fusion.train")
    train_steps = len(durations("fusion.forward", "fusion.train"))
    out["fusion.train_self_ms_per_step"] = metric(1e3 * train_self / train_steps if train_steps else 0.0, "ms")
    out["fusion.steps"] = metric(per_op("fusion.forward", "fusion.train"), "count")
    out["fusion.forward_calls"] = metric(per_op("fusion.forward"), "count")
    out["losses.batch_loss_calls"] = metric(per_op("losses.batch_loss"), "count")
    out["metrics.scored_cells"] = metric(counts.get("metrics.scored_cells", 0), "count")
    out["datagen.records"] = metric(counts.get("datagen.records", 0), "count")
    out["datagen.file_mb"] = metric(counts.get("datagen.file_mb", 0.0), "MB")
    rt_self = [t for t, n in zip(selfs, names) if n == "experiments.run_training"]
    out["experiments.run_training_self_s"] = metric(statistics.median(rt_self) if rt_self else 0.0, "s")
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    out["bench.traced_run_s"] = metric(traced_s, "s")
    out["bench.untraced_run_s"] = metric(plain_s, "s")
    out["bench.trace_overhead_pct"] = metric(100.0 * (traced_s / plain_s - 1.0), "%")
    out["bench.spans_per_op"] = metric(sum(1 for i in top if i in in_op) / n_ops, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    env = environment(args)

    # untraced, the tracer holds only the set-up and call spans
    tracer = sp.Tracer()
    attempted = failed = 0
    setup_times, op_times, op_roots, round_times = [], [], [], []
    times_by_mode = {False: [], True: []}  # keyed by whether the call was traced
    first_fp = None
    counts = {}
    state = None
    t_start = time.perf_counter()
    # closed loop in rounds of set-up then call: start a round while it is
    # expected to end in time, and make at least two so repeats can be
    # compared. Set-ups are spread over the run like the calls, so both are
    # timed on the machine as it is during the whole run.
    while attempted < 2 or time.perf_counter() - t_start + statistics.median(round_times) <= args.seconds:
        attempted += 1
        t_round = time.perf_counter()
        # a traced run alternates plain and traced rounds, so the overhead is
        # measured between neighbouring calls rather than across runs
        traced = bool(args.trace) and attempted % 2 == 0
        if traced:
            tracer.install("tailfocal", LAYERS)
        try:
            spent = 0.0
            while not spent or (not args.trace and spent < SETUP_ROUND_S):
                state = None  # release the previous set-up's data before building the next
                started = 0.0 if args.trace else time_import()
                t0 = time.perf_counter()
                with tracer.span("bench.setup"):
                    state = wl.setup(args.seed, OUT)
                setup_times.append(started + time.perf_counter() - t0)
                spent += setup_times[-1]
            t0 = time.perf_counter()
            with tracer.span("bench.op") as root:
                output = wl.call(state)
            dt = time.perf_counter() - t0
            tracer.uninstall()
            outcome = wl.check(state, output)
        except Exception:
            tracer.uninstall()
            failed += 1
            traceback.print_exc()
            if attempted >= 2 and not op_times:
                break
            round_times.append(time.perf_counter() - t_round)
            continue
        output = None
        problems = list(outcome.problems)
        if first_fp is None:
            first_fp = outcome.fingerprint
        elif outcome.fingerprint != first_fp:
            problems.append("output differs from the first call's")
        if traced:
            selfs = sp.self_times(tracer.spans)
            err = sp.subtree_self_error(tracer.spans, selfs, root)
            if err > 1e-6:  # far above clock rounding, far below any real overlap
                problems.append(f"self times miss the op span by {err:.3g} s")
            op_roots.append(root)
        if problems:
            failed += 1
            print(f"call {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        op_times.append(dt)
        times_by_mode[traced].append(dt)
        items, counts = outcome.items, outcome.counts
        round_times.append(time.perf_counter() - t_round)

    if not op_times or (args.trace and not all(times_by_mode.values())):
        print("bench: no call completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(tracer.spans, op_roots, times_by_mode[True], times_by_mode[False], counts)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "run_s": metric(statistics.median(op_times), "s"),
            "items_per_s": metric(items / statistics.median(op_times), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"env": env, "setup_times": setup_times, "op_times": op_times, "result": result}
    if args.trace:
        detail["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(detail, fh)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
