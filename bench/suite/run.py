#!/usr/bin/env python3
"""Build and run the mpx_suite benchmark for one workload.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
mpx libraries and the driver into .bench_build/ (Release); later runs only
re-check the build. The driver's JSONL metric records are echoed, and the
last line of output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, which also writes the span trace to
.bench_build/trace/<workload>.jsonl). The exit code is 0 only when every
payload and reduction check passed.
"""
import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "suite" / "mpx_suite"
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no mpx sources under {ROOT}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "suite" / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SUITE), "-B", str(BUILD / "suite"),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD / "suite"), "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if rc != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed; see {log_path}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        trace_dir = BUILD / "trace"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(trace_dir / f"{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    records = {}
    summary = None
    for line in proc.stdout.splitlines():
        print(line)
        rec = json.loads(line)
        if "metric" in rec:
            records[rec["metric"]] = rec
        elif "correct" in rec:
            summary = rec
    if summary is None:
        fail(f"mpx_suite exited with {proc.returncode} before its summary")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        rec = records.get(m["name"])
        if rec is None:
            fail(f"mpx_suite did not report {m['name']}")
        if rec["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {rec['unit']!r}, BENCHMARK.json says "
                 f"{m['unit']!r}")
        metrics[m["name"]] = {"value": rec["value"], "unit": m["unit"]}
    correct = summary["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
