"""stratalg benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 36

Run from the repository root; the program is imported from ./src. Set-up
time is the median of fresh interpreters importing stratalg.cli, half of
them before the job list runs and half after.
The job list then runs in a worker interpreter of its own (so peak RSS is
per run), with BLAS and OpenMP pinned to one thread, pass after pass until
the time is up; a job's time is its median over the passes. Times are in
reference seconds: scaled by fixed loops timed around each job and each
import, so that the host's changing speed cancels (see refclock.py); the
table also shows them in seconds. With --trace 0 the
last line reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of a traced pass over the same jobs. Lines before it
are a readable table and a record of the inputs and environment.
`--workload all` measures the three workloads one after another.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refclock import ref_seconds  # noqa: E402
from workloads import CATEGORIES, WORKLOADS  # noqa: E402

SETUP_WARMUPS = 2  # fill the bytecode and file caches; not counted
SETUP_SAMPLES = 6  # before the worker, and as many after it
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
              "import refclock; before = refclock.slowness(); "
              "t = time.perf_counter(); import stratalg.cli; "
              "t = time.perf_counter() - t; "
              "print(t, before, refclock.slowness())")
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
TIME_LIMIT_S = 170
WORKDIR = os.path.join(".bench_build", "perfbench")


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def import_times(src, env, deadline, count):
    """(seconds, reference seconds) each of `count` fresh interpreters
    takes to import stratalg.cli."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src, HERE], env=env,
            check=True, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        seconds, before, after = (float(x) for x in done.stdout.split())
        times.append((seconds, ref_seconds(seconds, before, after)))
    return times


def run_worker(workload, args, src, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src, "--workdir", WORKDIR]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload, args, src, env):
    """Measure one workload; print its table, record and result line."""
    deadline = time.monotonic() + TIME_LIMIT_S
    import_times(src, env, deadline, SETUP_WARMUPS)
    before = import_times(src, env, deadline, SETUP_SAMPLES)
    res = run_worker(workload, args, src, env, deadline)
    after = import_times(src, env, deadline, SETUP_SAMPLES)
    setup = before + after
    setup_s = statistics.median(ref for _, ref in setup)
    print(f"workload {workload}, seed {args.seed}: {res['jobs']} jobs, "
          f"{res['passes']} untraced pass(es)"
          + (" + 1 traced pass" if args.trace else ""))
    rows = [("setup_s", setup_s), ("wall_s", res["wall_s"]),
            ("peak_rss_mb", res["peak_rss_mb"])]
    rows += [(f"{c}_s", res["categories"][c]) for c in CATEGORIES
             if c in res["categories"]]
    # the same times in seconds: median and fastest
    seconds = {"setup": (statistics.median(s for s, _ in setup),
                         min(s for s, _ in setup)),
               "wall": (sum(res["category_medians"].values()),
                        sum(res["category_fastest"].values()))}
    seconds.update({c: (res["category_medians"][c],
                        res["category_fastest"][c])
                    for c in res["categories"]})
    print(f"  {'':<16}{'value':>14} {'':<5}{'median s':>12}{'fastest s':>12}")
    for name, value in rows:
        extra = seconds.get(name[:-2])
        print(f"  {name:<16}{value:>14.4f} {unit_of(name):<5}"
              + ("".join(f"{x:>12.4f}" for x in extra) if extra else ""))
    print(f"  {'slowness':<16}{res['slowness_median']:>14.4f}       "
          f"(worker's median; 1 = reference speed)")
    print(f"  {'failed_frac':<16}{res['failed'] / res['attempted']:>14.4f} "
          f"({res['failed']} of {res['attempted']} job runs)")
    for reason in res["reasons"]:
        print(f"  FAILED {reason}")
    print("record " + json.dumps(res["record"], sort_keys=True))

    values = res["layers"] if args.trace else dict(rows[:3])
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit_of(name)}
                    for name, v in values.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "stratalg", "cli.py")):
        sys.exit("perfbench: no src/stratalg/cli.py here; "
                 "run from the repository root")
    os.makedirs(WORKDIR, exist_ok=True)
    env = dict(os.environ, **PINNED_THREADS)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in chosen:
            run_workload(workload, args, src, env)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        sys.exit(f"perfbench: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
