#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
run-to-run spread: the distance between the first and third quartile of
its values, as a share of their median, next to the metric's bound.

Usage, from the repository root:

    python3 perfbench/spread.py --workload serve-mix-cold --seeds 1-10

A spread at or below a third of the bound is steady. setup_s is listed
but its spread is not held to the bound; only its median is compared
between runs of two commits.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next((l.split(":")[1].strip() for l in lines
                       if l.startswith("modeled digest:")), "-")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} digest={digest} " +
              " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    if len(args.seeds) < 2:
        return 0
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{'metric':28} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound else "-"
        print(f"{name:28} {med:12.6g} {spread:8.4f} {third:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
