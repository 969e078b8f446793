#!/usr/bin/env python3
"""Interleaved A/B of the benchmark suite between two checkouts.

    python3 scripts/suite_ab.py --base <path|rev> --change <path|rev>
        [--pairs 10] [--workload NAME ...] [--seconds S] [--trace 0|1]
        [--first-seed 1] [--json out.jsonl]

Each side is a checkout directory, or a git revision of this repository
that is checked out into a temporary `git worktree` for the run and
removed afterwards. Every side builds and runs bench/suite/run.py from its
own tree.

For each workload the two sides run in pairs: pair i uses seed
first_seed + i on both sides, and the side that runs first alternates
from pair to pair, so drift on the host loads both sides alike. Per
(workload, metric) the script prints each side's q1, median and q3, the
ratio of the medians (change / base), how many pairs the change won, and
whether the medians differ by more than the base's interquartile range.
A metric's direction comes from BENCHMARK.json. The exit code is 1 when
any run was incorrect or failed. Standard library only.
"""
import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def quartiles(values):
    """-> (q1, median, q3) of `values` (exclusive method, like
    bench/suite/check_repeat.py); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def schedule(pairs, first_seed):
    """-> [(seed, (first side, second side)), ...]: one seed per pair, and
    the side that runs first alternates."""
    return [(first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1])
            for i in range(pairs)]


def compare(base, change, better):
    """Summarise paired values (base[i] and change[i] ran with one seed).

    `better` is "lower" or "higher". A pair is a win when the change is
    strictly better. `separated` holds when the medians differ by more
    than the base's interquartile range.
    """
    if len(base) != len(change) or not base:
        raise ValueError("compare needs equally many values per side, >= 1")
    bq = quartiles(base)
    cq = quartiles(change)
    if better == "lower":
        wins = sum(c < b for b, c in zip(base, change))
    elif better == "higher":
        wins = sum(c > b for b, c in zip(base, change))
    else:
        raise ValueError(f"unknown direction {better!r}")
    return {
        "base": bq,
        "change": cq,
        "ratio": (cq[1] / bq[1] if bq[1]
                  else 1.0 if cq[1] == bq[1] else float("inf")),
        "wins": wins,
        "pairs": len(base),
        "separated": abs(cq[1] - bq[1]) > bq[2] - bq[0],
    }


def parse_run(stdout, returncode):
    """-> (correct, {metric: value}) from one run.py invocation. A run is
    correct only when it exited 0 and its summary says so."""
    lines = stdout.strip().splitlines()
    if not lines:
        return False, {}
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False, {}
    metrics = {name: m["value"]
               for name, m in summary.get("metrics", {}).items()}
    correct = returncode == 0 and summary.get("correct") is True
    return correct and summary.get("failed", 1) == 0, metrics


@contextlib.contextmanager
def checkout(spec):
    """Yield the root of a checkout: `spec` itself when it is a directory
    holding bench/suite/run.py, else a temporary worktree of that rev."""
    path = Path(spec)
    if (path / "bench" / "suite" / "run.py").is_file():
        yield path.resolve()
        return
    tmp = Path(tempfile.mkdtemp(prefix="suite_ab_"))
    tree = tmp / "tree"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                    str(tree), spec], check=True, stdout=subprocess.DEVNULL)
    try:
        yield tree
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(tree)], check=False)
        with contextlib.suppress(OSError):
            tmp.rmdir()


def run_side(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/suite/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    return parse_run(proc.stdout, proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout path or git rev")
    ap.add_argument("--change", required=True, help="checkout path or git rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to compare (repeatable; default: all)")
    ap.add_argument("--seconds", type=float,
                    help="seconds per run (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", type=Path,
                    help="append one JSON line per row, raw values included")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    direction = {m["name"]: m["better"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workload or names
    bad = 0
    rows = []
    with checkout(args.base) as base_root, \
            checkout(args.change) as change_root:
        roots = {"base": base_root, "change": change_root}
        for w in workloads:
            values = {s: {} for s in SIDES}
            for seed, order in schedule(args.pairs, args.first_seed):
                got = {}
                for side in order:
                    correct, metrics = run_side(roots[side], w, seed,
                                                args.seconds, args.trace)
                    print(f"{w} seed {seed} {side}: "
                          f"{'ok' if correct else 'INCORRECT'}",
                          file=sys.stderr)
                    bad += not correct
                    got[side] = metrics if correct else None
                if got["base"] is None or got["change"] is None:
                    continue  # keep the sides paired
                for side in SIDES:
                    for name, v in got[side].items():
                        values[side].setdefault(name, []).append(v)
            for name in values["base"]:
                if name not in direction or name not in values["change"]:
                    continue
                row = compare(values["base"][name], values["change"][name],
                              direction[name])
                row.update(workload=w, metric=name,
                           base_values=values["base"][name],
                           change_values=values["change"][name])
                rows.append(row)

    print(f"{'workload':18} {'metric':28} {'base q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'ratio':>7} {'wins':>6}  separated")
    for r in rows:
        def fmt(q):
            return "/".join(f"{x:.4g}" for x in q)
        print(f"{r['workload']:18} {r['metric']:28} {fmt(r['base']):>30} "
              f"{fmt(r['change']):>30} {r['ratio']:7.3f} "
              f"{r['wins']:>3}/{r['pairs']:<2}  "
              f"{'yes' if r['separated'] else 'no'}")
    if args.json:
        with open(args.json, "a", encoding="utf-8") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
    if bad:
        print(f"suite_ab: {bad} run(s) incorrect or failed", file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
