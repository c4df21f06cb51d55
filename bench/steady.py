"""Steadiness check: run one workload repeatedly and compare each spread with its bound.

    python3 bench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Each run uses another seed (``first-seed``, ``first-seed + 1``, ...) and
lasts ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartile spread (Q3 - Q1 as a share of the median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them) and the
metric's bound.  A spread under a third of the bound is marked ``ok``, and
the exit code is 0 only if every spread is.  The last line is a JSON object
with every run's metrics, so two invocations can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        elapsed = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append(values)
        print(f"seed {seed} ({elapsed:.1f} s): " + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)

    worst = 0.0
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < bound / 3 else "WIDE"
        worst = max(worst, spread / bound)
        print(f"{name:16s} {median:12.6g} {spread:8.4f} {bound:6.3f} {verdict}")
    print(json.dumps({"workload": args.workload, "runs": runs}))
    return 0 if worst < 1 / 3 else 2


if __name__ == "__main__":
    sys.exit(main())
