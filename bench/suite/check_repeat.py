#!/usr/bin/env python3
"""Check that the benchmark repeats: two sets of runs must agree.

    python3 bench/suite/check_repeat.py [--runs N] [--workload NAME ...]

Runs every workload (or the named ones) N times per set, two sets in
sequence, through bench/suite/run.py with BENCHMARK.json's run_seconds. Each
run gets its own seed, counting up from 1. For every (workload, end-to-end
metric) it prints each set's median and quartiles and the spread,
(q3 - q1) / median. It exits 1 when the two sets' medians differ by more
than the metric's bound in BENCHMARK.json, when a spread exceeds that
bound, or when a run fails. Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


def run_once(workload, seed):
    cmd = [sys.executable, str(SUITE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])["metrics"]


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (>= 2)")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to check (repeatable; default: all)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    workloads = args.workload or names
    values = {w: [{} for _ in range(2)] for w in workloads}
    failures = 0
    seed = 1
    for s in range(2):
        for w in workloads:
            for _ in range(args.runs):
                metrics = run_once(w, seed)
                print(f"set {'AB'[s]} {w} seed {seed}: "
                      f"{'ok' if metrics else 'FAILED'}", file=sys.stderr)
                seed += 1
                if metrics is None:
                    failures += 1
                    continue
                for name, m in metrics.items():
                    values[w][s].setdefault(name, []).append(m["value"])

    print(f"{'workload':18} {'metric':11} {'set':3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'delta':>7} {'bound':>5}  verdict")
    bad = failures
    for w in workloads:
        for m in spec["end_to_end"]:
            sets = [values[w][s].get(m["name"], []) for s in range(2)]
            if min(len(v) for v in sets) < 2:
                print(f"{w:18} {m['name']:11} too few successful runs")
                bad += 1
                continue
            stats = [quartiles(v) for v in sets]
            delta = (stats[1][1] - stats[0][1]) / stats[0][1]
            problems = []
            if abs(delta) > m["bound"]:
                problems.append("medians differ")
            if max(st[3] for st in stats) > m["bound"]:
                problems.append("spread over bound")
            bad += bool(problems)
            for s, (q1, med, q3, spread) in enumerate(stats):
                tail = (f"{delta:+7.3f} {m['bound']:5.2f}  "
                        f"{', '.join(problems) or 'ok'}") if s else ""
                print(f"{w:18} {m['name']:11} {'AB'[s]:3} {q1:12.5g} "
                      f"{med:12.5g} {q3:12.5g} {spread:7.3f} {tail}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
