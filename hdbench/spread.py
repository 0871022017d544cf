"""Run-to-run spread of the end-to-end metrics.

    python3 hdbench/spread.py --runs 10 --seconds 20 [--first-seed 1] [workload ...]

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for each metric the median and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles.  Raw results
are appended to ``.hdbench-results/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".hdbench-results"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(RESULTS / "spread.jsonl", "a") as fh:
                log = [line for line in proc.stderr.splitlines() if line.startswith("hdbench: workload=")]
                fh.write(json.dumps({"workload": name, "seed": seed, "log": log, **result}) + "\n")
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: runs={args.runs} failed-share/correct={sorted(shares)}")
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:36s} median={med:.6g} spread={spread:.4f} "
                  f"min={min(vals):.6g} max={max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
