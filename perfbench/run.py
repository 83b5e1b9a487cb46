"""Repo benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload campaign|fleet|phy|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own
interpreter (``all`` starts one child per workload), with BLAS/OpenMP
threads capped at the CPUs this process may use.  A first warm-up
round is checked but not measured; measured rounds then repeat until
``--seconds`` (counted from the end of set-up) are used up.  Every round
re-runs the same seeded specs, so its payloads must match the first's.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` spends half
the time untraced and half traced and prints the per-layer metrics and
the tracing overhead; spans are written to ``.perfbench/traces/``.
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed output
check makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("campaign", "fleet", "phy")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            os.environ[var] = str(cpus)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        output = child.stdout.rstrip("\n").split("\n")
        print("\n".join(output[:-1]), flush=True)
        status = status or child.returncode
        try:
            result = json.loads(output[-1])
        except (json.JSONDecodeError, IndexError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    cap_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench_measure

    return bench_measure.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
