"""Command-line driver.

  python3 tools/mpxlint include src            # lint the tree
  python3 tools/mpxlint --json-file report.json include src
  python3 tools/mpxlint --check lock-rank src  # single check
  python3 tools/mpxlint --update-baseline ...  # accept current findings

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from . import __version__, config
from .checks import all_checks, run_checks
from .engines import build_model
from .report import Baseline, emit_human, emit_json


def _default_repo_root() -> str:
    # tools/mpxlint/mpxlint/cli.py -> repo root is three dirs up.
    return os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def collect_files(paths: List[str], repo_root: str) -> List[str]:
    out: List[str] = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(repo_root, p)
        if os.path.isfile(ap):
            out.append(ap)
        elif os.path.isdir(ap):
            for dirpath, _dirnames, filenames in os.walk(ap):
                for fname in sorted(filenames):
                    if fname.endswith(config.SOURCE_EXTS):
                        out.append(os.path.join(dirpath, fname))
        else:
            raise FileNotFoundError(p)
    return sorted(set(out))


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="mpxlint",
        description="Static invariant checker for the mpx concurrency "
                    "model (lock ranks, mc-shim coverage, memory-order "
                    "pairing, progress-source contracts, TSA coverage).")
    ap.add_argument("paths", nargs="*", default=["include", "src"],
                    help="files or directories to lint "
                         "(default: include src)")
    ap.add_argument("--repo-root", default=_default_repo_root())
    ap.add_argument("--engine", choices=("auto", "clang", "textual"),
                    default="auto")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json (clang engine)")
    ap.add_argument("--check", action="append", dest="checks",
                    metavar="ID", help="run only this check (repeatable)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--json", action="store_true",
                    help="emit the JSON report to stdout")
    ap.add_argument("--json-file", default=None, metavar="FILE",
                    help="write the JSON report to FILE (human report "
                         "still goes to stdout)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default: "
                         "tools/mpxlint/baseline.json)")
    ap.add_argument("--tsa-baseline", default=None,
                    help="TSA exemption file (default: "
                         "tools/mpxlint/tsa_baseline.json)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore baseline files (fixture self-tests)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="write current findings into the baseline")
    ap.add_argument("--version", action="version",
                    version=f"mpxlint {__version__}")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid in all_checks():
            print(cid)
        return 0

    root = os.path.abspath(args.repo_root)
    baseline_path = args.baseline or os.path.join(
        root, "tools", "mpxlint", "baseline.json")
    tsa_path = args.tsa_baseline or os.path.join(
        root, "tools", "mpxlint", "tsa_baseline.json")

    try:
        files = collect_files(args.paths, root)
    except FileNotFoundError as exc:
        print(f"mpxlint: error: no such path: {exc}", file=sys.stderr)
        return 2
    if not files:
        print("mpxlint: error: no source files found", file=sys.stderr)
        return 2

    cc = args.compile_commands
    if cc is None:
        for cand in ("build", "build-default"):
            p = os.path.join(root, cand, "compile_commands.json")
            if os.path.exists(p):
                cc = p
                break

    try:
        model = build_model(files, root, engine=args.engine,
                            compile_commands=cc)
    except Exception as exc:
        print(f"mpxlint: internal error building model: {exc!r}",
              file=sys.stderr)
        return 2

    tsa_baseline = {}
    if not args.no_baseline and os.path.exists(tsa_path):
        try:
            with open(tsa_path, encoding="utf-8") as f:
                tsa_baseline = json.load(f)
        except (OSError, ValueError) as exc:
            print(f"mpxlint: error reading {tsa_path}: {exc}",
                  file=sys.stderr)
            return 2

    findings = run_checks(model, root, only=args.checks,
                          tsa_baseline=tsa_baseline)

    baseline = Baseline(None if args.no_baseline else baseline_path)
    if args.update_baseline:
        baseline.path = baseline_path
        baseline.entries.update({f.key: "baselined" for f in findings})
        baseline.write(findings)
        print(f"mpxlint: wrote {len(findings)} entries to {baseline_path}")
        return 0
    fresh = [f for f in findings if not baseline.covers(f)]

    if args.json_file:
        emit_json(fresh, model.diagnostics, model.engine, args.json_file)
    if args.json:
        emit_json(fresh, model.diagnostics, model.engine, None)
    if not args.json:
        emit_human(fresh, model.diagnostics, model.engine)
    return 1 if fresh else 0
