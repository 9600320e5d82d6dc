"""npatch benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload fill --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  With --trace 0 the run measures
the end-to-end metrics with tracing off; with --trace 1 it traces every
layer (tracer.py), runs the same jobs again untraced to measure the
tracing overhead, and reports the per-layer metrics.  Every job's output
is checked against an independent reference (checks.py, reference.py);
a job that raises or fails a check counts as failed and the run goes on.

Standard output ends with one JSON object holding `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the
environment, the workload's properties, per-command figures and, with
tracing, the absolute time of every span.  The package is imported
from ./src, never from an installed copy; without it the run exits 2.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

# a run's job list is sized to take --seconds at the nominal rate; it
# stops early after this many times --seconds (plus 10 s), so that a
# much slower program still exits in time
MAX_FACTOR = 2.0
# setups per run (this process plus child processes); setup_s is their
# median, each scaled to the reference machine speed (see workloads.py)
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "kpoints_per_s": "kpoints/s",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["fill", "inspect", "probe"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def _percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    It weights every order statistic, so it stays steady when op times
    fall in clusters (loop sizes), where a single order statistic jumps
    between clusters from run to run.
    """
    if len(values) < 2:   # the estimator needs two samples
        return float(values[0]) if len(values) else 0.0
    from scipy.stats.mstats import hdquantiles  # after set-up: a slow import
    return float(hdquantiles(np.asarray(values), prob=[q / 100.0])[0])


def _child_setup(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _environment(args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _summary(wl, ops, jobs):
    """Workload properties and per-command figures (informational lines)."""
    main = [op for op in ops if op.kind in wl.ops]
    seen, repeats = set(), 0
    for op in main:
        repeats += op.nm in seen
        seen.add(op.nm)
    props = {
        "jobs": len(jobs),
        "speed_p50": statistics.median(op.scale for op in ops) if ops else 0.0,
        "ops": {k: sum(op.kind == k for op in ops) for k in sorted({op.kind for op in ops})},
        "output_points": sum(op.points for op in ops if op.error is None),
    }
    if wl.name == "probe":
        queries = sum(len(j.kind) for j in jobs)
        props["near_corner_frac"] = sum(wl.near_corner(j) for j in jobs) / max(queries, 1)
    else:
        props["repeat_nm_frac"] = repeats / max(len(main), 1)
    per_kind = {}
    for kind in sorted({op.kind for op in ops}):
        ok = [op for op in ops if op.kind == kind and op.error is None]
        figures = per_kind[kind] = {"count": len(ok)}
        for label, ms in (("ms", [1e3 * op.scaled for op in ok]),
                          ("raw_ms", [1e3 * op.seconds for op in ok])):
            for q in (50, 90, 99):
                figures["%s_p%d" % (label, q)] = _percentile(ms, q)
    failures = [op.error for op in ops if op.error is not None]
    return props, per_kind, failures[:5]


def _counts(ops):
    failed = sum(op.error is not None for op in ops)
    return len(ops), failed


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "npatch", "__init__.py")):
        print("error: run from the repository root (no src/npatch here)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import npatch
    if not os.path.abspath(npatch.__file__).startswith(SRC + os.sep):
        print("error: npatch imported from %s, not ./src" % npatch.__file__, file=sys.stderr)
        return 2
    import workloads

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        warm = wl.warmup_job()
        wl.prepare(warm)
        warm_ops = wl.execute(warm)
        wl.cleanup(warm)
        setup_s = time.perf_counter() - T_START
        setup_s *= workloads.CAL_REF_S / statistics.median(workloads.speed_samples())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(json.dumps({"environment": _environment(args)}))
        if args.trace:
            result = _traced(args, wl, warm_ops)
        else:
            result = _measured(args, wl, warm_ops, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measured(args, wl, warm_ops, setup_s):
    from workloads import run_jobs
    ops, jobs = run_jobs(wl, range(wl.job_count(args.seconds)),
                         MAX_FACTOR * args.seconds + 10)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_child_setup(args) for _ in range(SETUPS - 1)]
    props, per_kind, failures = _summary(wl, ops, jobs)
    print(json.dumps({"workload": wl.name, "properties": props, "per_command": per_kind,
                      "setup_samples_s": setups, "failures": failures}))
    attempted, failed = _counts(warm_ops + ops)
    ok = [op for op in ops if op.error is None]
    ms = [1e3 * op.scaled for op in ok if op.kind in wl.ops]
    busy = sum(op.scaled for op in ops)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        "op_ms_p50": _percentile(ms, 50),
        "op_ms_p90": _percentile(ms, 90),
        "kpoints_per_s": sum(op.points for op in ok) / busy / 1e3 if busy else 0.0,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def _traced(args, wl, warm_ops):
    from tracer import Tracer
    from workloads import run_jobs
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops, jobs = run_jobs(wl, range(wl.job_count(args.seconds / 2)),
                                    MAX_FACTOR * args.seconds / 2 + 5)
    finally:
        tracer.uninstall()
    plain_ops, _ = run_jobs(wl, [j.index for j in jobs])
    busy_plain = sum(op.scaled for op in plain_ops)
    overhead = sum(op.scaled for op in traced_ops) / busy_plain - 1.0 if busy_plain else 0.0
    props, per_kind, failures = _summary(wl, traced_ops, jobs)
    print(json.dumps({"workload": wl.name, "properties": props, "per_command": per_kind,
                      "failures": failures}))
    print(json.dumps({"spans": tracer.spans(), "absent": tracer.absent_metrics()}))
    attempted, failed = _counts(warm_ops + traced_ops + plain_ops)
    # a job here is a CLI command or a probe session (its `open`)
    commands = sum(op.kind != "query" for op in traced_ops)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": tracer.layer_metrics(sum(op.seconds for op in traced_ops),
                                            commands, overhead)}


if __name__ == "__main__":
    sys.exit(main())
