#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py lot-random --seeds 1-10 [--trace 1] [--json OUT]

The spread is (Q3 - Q1) / median over the runs, with the quartiles from
statistics.quantiles(values, n=4); it is compared with each end-to-end
metric's bound in BENCHMARK.json.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the table as JSON here")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    command = config["command"] + ["--workload", args.workload, "--seconds", str(config["run_seconds"])]
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            command + ["--seed", str(seed), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout, out.stderr, file=sys.stderr)
            return 1
        runs.append(result["metrics"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    table = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": runs[0][name]["unit"]}
        bound = bounds.get(name) if not args.trace else None
        note = f"  bound {bound}" + ("  OVER" if spread > bound else "") if bound is not None else ""
        print(f"{name:<40} median {med:.5g} {table[name]['unit']:<6} spread {spread:.3f}{note}")
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
