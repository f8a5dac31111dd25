"""Benchmark of curvlab's public pipelines on seeded workloads.

    python3 perfbench/run.py --workload prescribe --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # each workload in its own process
    PYTHONPATH=src python3 -m pytest -q perfbench           # self-test on tiny instances

A run builds the workload's inputs from the seed, makes one untimed warm-up
call per pipeline, then repeats passes over the workload's calls while
another pass fits in ``--seconds`` (at least one pass).  Every output is
checked from the object the call returned, outside the timed region; a call
fails when it raises where a result is expected, returns where an error is
expected, or its output fails the check.  The report names every failed call
with its reason.

``--trace 0`` times the calls with tracing off and ends with the end-to-end
metrics ``geomean_rel``, ``peak_rss_mb`` and ``setup_s``.  ``geomean_rel`` divides
each call's time by the time of a fixed numpy reference loop measured
around it (`Reference`), which cancels the host's drift in speed, and takes
each call's median ratio over the run's passes.  It averages those
geometrically within each timing metric (``prescribe_s.n64``, ...), and then
across the metrics: every timing metric weighs the same, however long its
calls take, and every call moves it, not only the middle one.  The same
average of the raw medians, ``geomean_s``, is printed in seconds beside it.
``setup_s`` is the median wall time of fresh processes that import curvlab and
build the workload's inputs.  ``--trace 1`` runs one untraced and one traced pass,
requires identical outputs from both, and ends with the per-layer metrics of
`tracing.layer_metrics` plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  ``failed``
counts every failed call of every pass; ``correct`` is true only when no call
failed and, when traced, both passes returned identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PERCENTILES = (99.9, 99.0, 90.0)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the core count; must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(cores))
    return cores


def environment(cores: int) -> dict:
    import numpy as np
    import scipy

    root = HERE.parent
    sha = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": cores}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def call_case(case):
    """The timed region: one pipeline call.  Returns (output or exception, seconds)."""
    start = time.perf_counter()
    try:
        out = case.call()
    except Exception as exc:  # a failed call is recorded, not fatal
        out = exc
    return out, time.perf_counter() - start


class Tally:
    """Call times per end-to-end metric, attempts, and named failures."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures = []

    def record(self, case, out, seconds):
        self.samples[case.metric].append(seconds)
        self.attempted += 1
        reason = case.check(out)
        if reason is not None:
            self.failures.append((case.metric, case.label, reason))


def run_pass(cases, tally, call=call_case):
    """One call per case; returns [(case, output, seconds)] and their total time.

    Garbage is collected before each call, outside its timing, as in `measure`.
    """
    outcomes = []
    for case in cases:
        gc.collect()
        out, seconds = call(case)
        tally.record(case, out, seconds)
        outcomes.append((case, out, seconds))
    return outcomes, sum(seconds for *_, seconds in outcomes)


def warm_up(workload):
    for case in workload.warmup:
        call_case(case)


class Reference:
    """A fixed numpy loop, independent of curvlab, timed between calls.

    On a shared host the same call's time drifts by up to 2x within and
    between runs.  Dividing it by the reference time measured around it
    cancels most of that drift.  The loop calls no LAPACK routine: the first
    one after a large eigensolve runs up to 20x slower than the next.
    """

    LOOPS = 600  # about 10 ms on an idle core

    def __init__(self):
        import numpy as np

        self.np, self.x = np, np.random.default_rng(0).standard_normal(512)

    def seconds(self) -> float:
        np, x = self.np, self.x
        start = time.perf_counter()
        for i in range(self.LOOPS):
            float(np.sum(np.sin(x + i) * x))
        return time.perf_counter() - start


def measure(workload, seconds: float):
    """Passes over the workload while another one fits in ``seconds``.

    The reference runs before every call and after every pass, outside the
    calls' timings.  Returns the tally, the wall time of each pass, every
    reference time, and for each call its median time over the passes and its
    median ratio to the mean of the reference times just before and after it.
    A transient slowdown during one pass moves neither median.

    Garbage is collected before each call, and an output is dropped once it
    is checked: the peak RSS is then the program's, not that of outputs the
    benchmark still holds (keeping a pass's outputs made it vary by 8 MB).
    """
    tally = Tally()
    reference = Reference()
    refs, passes = [], []
    per_case = [[] for _ in workload.cases]
    rel_case = [[] for _ in workload.cases]
    start = time.perf_counter()
    while True:
        call_times = []
        for case in workload.cases:
            gc.collect()
            refs.append(reference.seconds())
            out, call_s = call_case(case)
            tally.record(case, out, call_s)
            del out
            call_times.append(call_s)
        refs.append(reference.seconds())
        passes.append(sum(call_times))
        around = refs[-len(call_times) - 1:]
        for i, (times, rel, call_s) in enumerate(zip(per_case, rel_case, call_times)):
            times.append(call_s)
            rel.append(call_s / (0.5 * (around[i] + around[i + 1])))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            return (tally, passes, refs, [statistics.median(t) for t in per_case],
                    [statistics.median(r) for r in rel_case])


def traced_passes(cl, workload, dirs):
    """One untraced and one traced pass over the same cases."""
    import tracing
    import workloads as wl

    tally = Tally()
    plain, plain_s = run_pass(workload.cases, tally)
    tracer = tracing.Tracer()
    tracer.install(cl)
    files0, bytes0 = dirs.files_written, dirs.bytes_written

    runs = iter(range(len(workload.cases)))

    def traced_call(case):
        return tracer.root(f"{next(runs)}:{case.label}", lambda: call_case(case))

    try:
        traced, traced_s = run_pass(workload.cases, tally, call=traced_call)
    finally:
        tracer.uninstall()
    mismatched = [case.label for (case, a, _), (_, b, _) in zip(plain, traced)
                  if wl.digest(case.fingerprint(a)) != wl.digest(case.fingerprint(b))]
    layers = tracing.layer_metrics(tracer, [(case, out) for case, out, _ in traced],
                                   dirs.files_written - files0,
                                   dirs.bytes_written - bytes0)
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    return tally, tracer, layers, mismatched, (plain_s, traced_s)


def geomean_per_metric(cases, values) -> dict:
    """Geometric mean of the values within each timing metric."""
    by_metric = defaultdict(list)
    for case, value in zip(cases, values):
        by_metric[case.metric].append(value)
    return {metric: statistics.geometric_mean(v) for metric, v in sorted(by_metric.items())}


def geomean_by_metric(cases, values) -> float:
    """Geometric mean within each timing metric, then across the metrics."""
    return statistics.geometric_mean(geomean_per_metric(cases, values).values())


def setup_times(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import curvlab and build the inputs.

    No timeout: with one, `subprocess` polls the child at intervals of up to
    50 ms instead of blocking until it exits, and the times come out in steps
    of that size.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--probe-setup",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def summarize(values) -> str:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = f"median={statistics.median(values):.6g} n={n}"
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            idx = min(n - 1, int(round(p / 100.0 * (n - 1))))
            text += f" p{p:g}={values[idx]:.6g}"
            break
    return text


def print_tally(tally, passes):
    import tracing

    for metric in sorted(tally.samples):
        print(f"metric {metric} s {summarize(tally.samples[metric])}")
    if passes:
        print(f"metric wall_s s value={sum(passes):.6g} passes={len(passes)}")
        print(f"metric pass_wall_s s {summarize(passes)}")
    failed = len(tally.failures)
    print(f"metric failed_frac ratio value={failed / tally.attempted:.6g} "
          f"failed={failed} attempted={tally.attempted}")
    for metric, label, reason in tally.failures:
        print(f"failed {metric} [{label}]: {reason}")
    sizes = sorted({int(m.rsplit(".n", 1)[1]) for m in tally.samples if m.startswith("prescribe_s.n")})
    for n in sizes:
        print(f"computed prescribe.dense_bytes N={n} bytes={tracing.dense_bytes(n)}")


def result_line(correct, tally, metrics) -> str:
    return json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                       "failed": len(tally.failures),
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    cores = cap_blas_threads()
    import tracing
    import workloads as wl

    cl = wl.import_curvlab()
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    dirs = wl.ScenarioDirs(wl.OUT / f"scenarios-{os.getpid()}")
    try:
        workload = wl.build(cl, args.workload, args.seed, dirs)
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env " + " ".join(f"{k}={v}" for k, v in environment(cores).items()))
        warm_up(workload)
        if args.trace:
            tally, tracer, layers, mismatched, (plain_s, traced_s) = traced_passes(cl, workload, dirs)
            print_tally(tally, [])
            print(f"trace untraced_pass_s={plain_s:.6g} traced_pass_s={traced_s:.6g}")
            for label in mismatched:
                print(f"mismatch traced output differs from untraced: {label}")
            by_n = defaultdict(int)
            for node in tracer.select(tracing.OPERATOR_BUILDS):
                by_n[workload.cases[node.run].n] += node.count
            for n in sorted(by_n, key=lambda x: -1 if x is None else x):
                print(f"counted mesh.operator_build_calls N={n} calls={by_n[n]}")
            rss = peak_rss_mb()
            print(f"metric peak_rss_mb MB value={rss:.6g}")
            for name, (value, unit) in layers.items():
                print(f"layer {name} {unit} value={value:.6g}")
            spans = wl.OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans, {"workload": args.workload, "seed": args.seed,
                                "labels": [c.label for c in workload.cases]})
            print(f"spans written to {spans.relative_to(HERE.parent)}")
            correct = not tally.failures and not mismatched
            print(result_line(correct, tally, layers))
        else:
            tally, passes, refs, medians, rel_medians = measure(workload, args.seconds)
            rss = peak_rss_mb()
            print_tally(tally, passes)
            timings = len({case.metric for case in workload.cases})
            geomean_s = geomean_by_metric(workload.cases, medians)
            geomean_rel = geomean_by_metric(workload.cases, rel_medians)
            print(f"metric geomean_s s value={geomean_s:.6g} of={timings} timing metrics")
            print(f"metric reference_s s {summarize(refs)}")
            for metric, value in geomean_per_metric(workload.cases, rel_medians).items():
                print(f"relative {metric} ratio value={value:.6g}")
            print(f"metric geomean_rel ratio value={geomean_rel:.6g} of={timings} timing metrics")
            print(f"metric setup_s s {summarize(setup)}")
            print(f"metric peak_rss_mb MB value={rss:.6g}")
            metrics = {"geomean_rel": (geomean_rel, "ratio"),
                       "peak_rss_mb": (rss, "MB"),
                       "setup_s": (statistics.median(setup), "s")}
            print(result_line(not tally.failures, tally, metrics))
    finally:
        dirs.close()
    return 0


def probe_setup(args) -> int:
    cap_blas_threads()
    import workloads as wl

    cl = wl.import_curvlab()
    wl.build(cl, args.workload, args.seed, wl.ScenarioDirs(wl.OUT / "unused"))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, one at a time."""
    import workloads as wl

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("prescribe", "yamabe", "approx", "sweeps", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
