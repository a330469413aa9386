"""Benchmark for pairlin: run one workload, check its outputs, print metrics.

    python3 pairbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

Run from the root of a pairlin checkout; pairlin is imported from ``src``.
Workloads: ``verify-all``, ``cli-queries``, ``kernels`` (see README.md).

With ``--trace 0`` the run repeats whole rounds of the workload, each in a
fresh worker process, and starts another round only while it fits in
``--seconds``.  It reports the end-to-end metrics: mean round time, set-up
time (median over fresh interpreters), peak resident memory of a worker, and
the median and 90th-percentile latency of one operation.  With ``--trace 1``
it runs round 0 once with every pairlin layer wrapped in spans and reports
the per-layer metrics.  The last line of standard output is one JSON object;
a fuller record goes to ``pairbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("verify-all", "cli-queries", "kernels")
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s, per run
DEADLINE_S = 170  # a run ends, with its children, before this
POLL_S = 0.01  # how often a waiting run looks for its child's exit


class RunFailure(Exception):
    """The benchmark itself could not run; no result is printed."""


def env():
    e = dict(os.environ)
    src = os.path.join(ROOT, "src")
    e["PYTHONPATH"] = src + (os.pathsep + e["PYTHONPATH"] if e.get("PYTHONPATH") else "")
    return e


def spawn(argv, deadline):
    """Run a child to completion; returns (exit code, stdout, seconds, rusage).

    The child is reaped with wait4, so its resource usage is its own, and it
    is killed if it outlives the run's deadline.  Its output goes through
    unlinked files under pairbench/out, which cannot fill a pipe.
    """
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env(), stdout=out, stderr=err)
        start = time.perf_counter()
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise RunFailure(f"{' '.join(argv[1:3])} ran past the deadline")
                time.sleep(POLL_S)
        finally:
            if not pid:  # interrupted or late: stop the child and reap it
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        text, errors = out.read().decode(), err.read().decode()
    if proc.returncode != 0 and argv[1] == WORKER:
        raise RunFailure(f"worker exited {proc.returncode}: {errors.strip()[-2000:]}")
    return proc.returncode, text, elapsed, usage


def worker(args, deadline):
    rc, out, elapsed, usage = spawn([sys.executable, WORKER, *args], deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailure(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), elapsed, usage


def peak_mb(usage):
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def verify_round(deadline):
    """`pairlin verify all` as its own process, at its default seed."""
    from workloads import verify_problem

    argv = [sys.executable, "-m", "pairlin.cli", "verify", "all"]
    rc, out, elapsed, usage = spawn(argv, deadline)
    problem = verify_problem(rc, out)
    return {
        "latencies": [elapsed],
        "attempted": 1,
        "failed": 0,
        "incorrect": int(problem is not None),
        "problems": [problem] if problem else [],
    }, elapsed, usage


def measure(workload, seed, seconds, deadline):
    rounds, setups, peaks, cpu = [], [], [], 0.0
    start = time.monotonic()
    while True:
        if workload == "verify-all":
            rec, elapsed, usage = verify_round(deadline)
            wall = elapsed
        else:
            rec, elapsed, usage = worker(
                ["round", "--workload", workload, "--seed", str(seed),
                 "--round", str(len(rounds))], deadline)
            setups.append(rec["setup_s"])
            wall = sum(rec["latencies"])
        rec["wall_s"] = wall
        rounds.append(rec)
        peaks.append(peak_mb(usage))
        cpu += cpu_s(usage)
        spent = time.monotonic() - start
        if spent + elapsed > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        rec, _, _ = worker(["setup", "--workload", workload], deadline)
        setups.append(rec["setup_s"])
    latencies = [t for r in rounds for t in r["latencies"]]
    metrics = {
        # the mean of a few rounds, not their median: the machine's speed
        # drifts between stretches of seconds, and the mean covers them all
        "wall_s": (statistics.mean(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "op_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
    }
    detail = {
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_samples_s": setups,
        "cpu_s_per_round": cpu / len(rounds),
        "operations_per_round": rounds[0]["attempted"],
    }
    return rounds, metrics, detail


def trace(workload, seed, deadline):
    if workload == "verify-all":
        rec, _, usage = worker(["verify", "--trace"], deadline)
    else:
        rec, _, usage = worker(
            ["round", "--workload", workload, "--seed", str(seed), "--round", "0",
             "--trace"], deadline)
    from tracer import metric_units

    values = rec["trace"]
    metrics = {name: (values[name], unit) for name, unit in metric_units()}
    detail = {
        "round_s": sum(rec["latencies"]),
        "cpu_s": cpu_s(usage),
        "functions": rec["functions"],
    }
    return [rec], metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description="pairlin benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run stops its child on the way out (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "pairlin", "__init__.py")):
        print(f"pairbench: no pairlin sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    try:
        if args.trace:
            rounds, metrics, detail = trace(args.workload, args.seed, deadline)
        else:
            rounds, metrics, detail = measure(
                args.workload, args.seed, args.seconds, deadline)
    except RunFailure as exc:
        print(f"pairbench: {exc}", file=sys.stderr)
        return 1
    problems = [p for r in rounds for p in r["problems"]]
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": sum(r["incorrect"] for r in rounds) == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**result, "problems": problems, **detail}, fh, indent=1)
    for line in problems[:10]:
        print(f"pairbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
