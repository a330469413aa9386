"""One fresh interpreter's share of a benchmark run; run.py starts it.

    worker.py setup  --workload W              time set-up only
    worker.py round  --workload W --seed S --round R [--trace]
    worker.py verify --trace                   traced `pairlin verify all`

Set-up is timed from the first pairlin import to the last pair built.  A
round then runs its operations one after another (one client, a closed
loop), timing each call and checking each output outside the timed region.
The last line of standard output is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")  # matrix files of a round, removed after it
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_PROBLEMS = 5


def set_up(workload, tracer=None):
    """Import pairlin and build the workload's pairs; returns the seconds
    taken.  A tracer is installed between the two, so it sees the builds."""
    start = time.perf_counter()
    workloads.import_pairlin(workload)
    if tracer is not None:
        tracer.startup_s = time.perf_counter() - start
        tracer.install()
    workloads.build_pairs(workload)
    return time.perf_counter() - start


def run_ops(ops):
    latencies, failed, problems = [], 0, []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failed += 1
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            problem = op.check(result)
        except Exception as exc:  # output the check could not read is wrong output
            problem = f"output not as expected: {type(exc).__name__}: {exc}"
        if problem:
            problems.append(f"{op.label}: {problem}")
    return latencies, failed, problems


def do_round(args):
    tracer = Tracer() if args.trace else None
    setup_s = set_up(args.workload, tracer)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=OUT)
    try:
        if args.workload == "kernels":
            ops = workloads.kernel_ops(args.seed, args.round)
        else:
            ops = workloads.query_ops(args.seed, args.round, workdir)
        latencies, failed, problems = run_ops(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    incorrect = len(problems) - failed
    record = {
        "setup_s": setup_s,
        "latencies": latencies,
        "labels": [op.label for op in ops],
        "attempted": len(ops),
        "failed": failed,
        "incorrect": incorrect,
        "problems": problems[:MAX_PROBLEMS],
    }
    if tracer is not None:
        record["trace"] = tracer.metrics()
        record["functions"] = tracer.functions()
    return record


def do_verify(args):
    """`pairlin verify all` in this process, traced."""
    tracer = Tracer()
    start = time.perf_counter()
    workloads.import_pairlin("verify-all")
    tracer.startup_s = time.perf_counter() - start
    tracer.install()
    start = time.perf_counter()
    try:
        rc, text = workloads.run_cli(["verify", "all"])
    except Exception as exc:
        rc, text = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    problem = workloads.verify_problem(rc, text)
    return {
        "latencies": [elapsed],
        "attempted": 1,
        "failed": int(rc is None),
        "incorrect": int(rc is not None and problem is not None),
        "problems": [problem] if problem else [],
        "trace": tracer.metrics(),
        "functions": tracer.functions(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "round", "verify"))
    p.add_argument("--workload", default="verify-all",
                   choices=("verify-all", "cli-queries", "kernels"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if args.mode == "setup":
        record = {"setup_s": set_up(args.workload)}
    elif args.mode == "round":
        record = do_round(args)
    else:
        record = do_verify(args)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
