#!/usr/bin/env python3
"""Builds and runs one workload of the benchmark, then prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload offline-paper --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs the perfbench binary for the workload and seed, prints every metric
it reports as a table with unit, direction and clock, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exits non-zero without a JSON line if the build or the
run fails, or if a listed metric is missing.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
WORKLOADS = ("offline-paper", "serve-drive-warm", "serve-mix-cold")
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; raises on failure or timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"{cmd[0]} exited with {rc}")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_checked(["cmake", "--build", str(BUILD), "-j", jobs], timeout=840)
    return BUILD / "perfbench"


def parse_records(lines):
    metrics, checks, count = {}, [], None
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "@metric" and len(parts) == 6:
            name, value, unit, better, clock = parts[1:]
            metrics[name] = (float(value), unit, better, clock)
        elif parts[0] == "@check" and len(parts) >= 3:
            checks.append((parts[1], parts[2] == "ok"))
        elif parts[0] == "@count" and len(parts) == 3:
            count = (int(parts[1]), int(parts[2]))
    return metrics, checks, count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--latency-limit-ms", type=float, default=30.0,
                    help="modeled e2e p90 limit of the serving workloads")
    args = ap.parse_args()
    # A terminated run still stops and reaps its child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    OUT.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--latency-limit-ms", str(args.latency_limit_ms),
           "--out", str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    lines = out.splitlines()
    for line in lines:
        if not line.startswith("@"):
            print(line)
    metrics, checks, count = parse_records(lines)
    if count is None:
        log(f"{args.workload} exited with {proc.returncode} before reporting")
        return proc.returncode or 1

    print(f"\n{'metric':34} {'value':>16} {'unit':10} {'better':7} clock")
    for name, (value, unit, better, clock) in metrics.items():
        print(f"{name:34} {value:16.6g} {unit:10} {better:7} {clock}")
    failed_checks = [name for name, ok in checks if not ok]
    print(f"checks: {len(checks) - len(failed_checks)}/{len(checks)} ok"
          + (f", FAILED: {' '.join(failed_checks)}" if failed_checks else ""))

    result = {}
    for m in wanted:
        if m["name"] not in metrics:
            log(f"metric {m['name']} missing from {args.workload}")
            return 1
        value, unit = metrics[m["name"]][:2]
        if unit != m["unit"]:
            log(f"metric {m['name']} reported in {unit}, expected {m['unit']}")
            return 1
        result[m["name"]] = {"value": value, "unit": unit}
    correct = proc.returncode == 0 and not failed_checks
    attempted, failed = count
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
