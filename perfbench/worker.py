"""Runs one workload's job list in a fresh interpreter.

Started by run.py, which passes the workload, seed, time budget, trace
flag, the `src` directory to import `stratalg` from and a work
directory for input files. Prints one JSON object on stdout: per
category, the sums of each job's median time over the passes in reference
seconds (see refclock.py) and in seconds, and of its fastest time in
seconds; peak RSS, failures and, when traced, the per-layer metrics.

Each job calls `stratalg.cli.main(argv)` in-process, one after another
(a closed loop with one client), and is timed around that call alone.
The host's slowness is sampled before the first job of a pass and after
every job.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import oracles
import refclock
import workloads
from tracer import Tracer, installed_wrappers, layer_metrics

def run_job(cli, argv):
    """(seconds, exit code, stdout text, error) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising job is a failed job
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), error


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(cli, jobs, python_share, tracer=None, keep_output=False):
    """(wall seconds, per-job results, host slowness samples) of one pass
    over the job list; sample k is taken just before job k and just after
    job k - 1 (see refclock.py). A result holds the job's stdout when
    `keep_output`, else its digest, so that the outputs of many passes do
    not add to the worker's peak memory."""
    results = []
    t0 = time.perf_counter()
    loops = [refclock.slowness(python_share)]
    for job in jobs:
        dt, code, out, error = run_job(cli, job.argv)
        loops.append(refclock.slowness(python_share))
        if tracer is not None:
            tracer.counters["cli.main.out_bytes"] += len(out.encode())
        results.append((dt, code, out if keep_output else digest(out),
                        error))
    return time.perf_counter() - t0, results, loops


def failures(jobs, first, others):
    """(failed executions, reasons): the oracle judges the first pass
    (whose results hold stdout); every later execution must reproduce it
    byte for byte (its results hold the digest of stdout)."""
    failed = 0
    reasons = []
    for i, job in enumerate(jobs):
        _, code, out, error = first[i]
        reason = oracles.check(job, code, out, error)
        if reason is not None:
            failed += 1 + len(others)
            reasons.append(f"{job.name}: {reason}")
            continue
        for results in others:
            if results[i][1:] != (code, digest(out), error):
                failed += 1
                reasons.append(f"{job.name}: output differs between passes")
    return failed, reasons


def job_times(passes, ref=False):
    """Per job, its times over the passes: in seconds, or with `ref` in
    reference seconds, scaled by the slowness around each run of it."""
    count = len(passes[0][1])
    if not ref:
        return [[results[i][0] for _, results, _ in passes]
                for i in range(count)]
    return [[refclock.ref_seconds(results[i][0], loops[i], loops[i + 1])
             for _, results, loops in passes] for i in range(count)]


def category_sums(jobs, times, pick):
    """Sum over each category's jobs of `pick` of the job's times."""
    totals = {}
    for job, ts in zip(jobs, times):
        totals[job.category] = totals.get(job.category, 0.0) + pick(ts)
    return totals


def record(jobs):
    import numpy
    from stratalg import _kernels
    return {
        "argv_sha256": workloads.argv_digest(jobs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "has_numba": _kernels.HAS_NUMBA,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.endswith("_THREADS") or k.startswith("STRATALG_")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import stratalg
    import stratalg.cli as cli
    expected = os.path.join(os.path.abspath(args.src), "stratalg")
    if os.path.dirname(os.path.abspath(stratalg.__file__)) != expected:
        sys.exit(f"imported stratalg from {stratalg.__file__}, "
                 f"not from {expected}")

    workloads.write_inputs(args.workdir)
    jobs = workloads.build(args.workload, args.seed, args.workdir)
    share = workloads.PYTHON_SHARE[args.workload]
    start = time.perf_counter()
    passes = [run_pass(cli, jobs, share, keep_output=True)]
    result = {}
    if args.trace:
        passes.append(run_pass(cli, jobs, share))  # warm, as traced is
        tracer = Tracer()
        with tracer:
            traced = run_pass(cli, jobs, share, tracer)
        leftover = installed_wrappers()
        if leftover:
            sys.exit(f"tracer left wrappers installed: {leftover}")
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = traced[0] - passes[-1][0]
        # per-subcommand times of the traced pass in seconds, so layer
        # shares of them compare spans timed in the same pass
        cats = category_sums(jobs, job_times([traced]), min)
        layers.update({f"{c}_s": cats.get(c, 0.0)
                       for c in workloads.CATEGORIES if c != "other"})
        result["layers"] = layers
        others = [passes[1][1], traced[1]]
    else:
        while time.perf_counter() - start + passes[-1][0] <= args.seconds:
            passes.append(run_pass(cli, jobs, share))
        others = [results for _, results, _ in passes[1:]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, reasons = failures(jobs, passes[0][1], others)
    ref = category_sums(jobs, job_times(passes, ref=True), statistics.median)
    raw = job_times(passes)
    medians = category_sums(jobs, raw, statistics.median)
    fastest = category_sums(jobs, raw, min)
    loops = [t for _, _, pass_loops in passes for t in pass_loops]
    result.update({
        "jobs": len(jobs),
        "passes": len(passes),
        "attempted": len(jobs) * (1 + len(others)),
        "failed": failed,
        "reasons": reasons[:20],
        "categories": ref,
        "category_medians": medians,
        "category_fastest": fastest,
        "wall_s": sum(ref.values()),
        "slowness_median": statistics.median(loops),
        "peak_rss_mb": peak_rss_mb,
        "record": record(jobs),
    })
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
