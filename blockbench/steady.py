"""Steadiness check: run each workload k times, each with another seed, and
print per metric the median, the quartiles, the quartile spread as a share
of the median and the max/min ratio.

Usage (from the repository root)::

    python3 blockbench/steady.py --runs 10 --seconds 10
    python3 blockbench/steady.py --workload read_scan --runs 5 --seconds 10

Runs are sequential, one process each, exactly as ``run.py`` is invoked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    low = min(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "max_min": max(values) / low if low else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOADS:
        runs, took = [], []
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            took.append(time.monotonic() - start)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if not result["correct"] or result["failed"]:
                status = 1
        if not runs:
            continue
        fails = {r["failed"] / r["attempted"] for r in runs}
        print(
            f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
            f"failed shares={sorted(fails)}, seconds per run {min(took):.0f}-{max(took):.0f}"
        )
        print(f"  {'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'max/min':>8s}")
        for name, first in runs[0]["metrics"].items():
            s = spread([float(r["metrics"][name]["value"]) for r in runs])
            print(
                f"  {name:36s} {s['median']:14.4f} {s['q1']:14.4f} {s['q3']:14.4f} "
                f"{s['iqr_share']:8.4f} {s['max_min']:8.4f}  {first['unit']}"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
