"""Run the benchmark once per seed and summarize each metric across runs.

Usage, from the repository root:

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds 30]

Runs ``bench/run.py --trace 0`` for each seed ``lo`` to ``hi``, one after
the other, and prints each run's result line.  Then it prints per metric
the median, the quartiles and the spread (distance between the quartiles
as a share of the median), as ``statistics.quantiles(values, n=4)`` gives
them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        line = proc.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", flush=True)
        for name, metric in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:52s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
