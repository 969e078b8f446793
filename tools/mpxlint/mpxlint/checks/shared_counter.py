"""shared-counter: no process-wide write-shared counter on the datapath.

A read-modify-write (`fetch_add` / `fetch_sub` / `exchange`) on an atomic
with static storage duration writes one cache line that every thread
driving any VCI shares — the contention per-VCI isolation (MPIX Stream)
exists to remove. In the datapath files (config.DATAPATH_FILES) such an
RMW is a finding when the atomic is

  - declared at namespace scope, or
  - a `static` variable (function-local or class-static; `thread_local`
    ones are per thread and exempt), including the accessor idiom
    `static std::atomic<T>& f() { static std::atomic<T> c; return c; }`
    used as `f().fetch_add(...)`.

Counters belong in per-thread, per-endpoint or per-VCI state that is
summed when read. Deliberate exceptions (off-datapath bookkeeping in a
datapath file) carry `// mpxlint: allow(shared-counter) <reason>` on the
declaration or the RMW line.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Tuple

from .. import config
from ..engines.textual import strip_noncode
from ..report import Finding

CHECK_ID = "shared-counter"

_ATOMIC_TYPE = r"(?:(?:std|mc)\s*::\s*)?atomic\s*<[^;{}]*?>"
# `static` (not thread_local) variable of atomic type.
_STATIC_DECL = re.compile(
    r"\bstatic\s+(?:inline\s+)?(?:constinit\s+)?" + _ATOMIC_TYPE +
    r"\s+(\w+)\s*(?:\{|=|;|\[|\()")
# Any atomic variable declaration (namespace scope is decided by the
# enclosing-scope tracker).
_ANY_DECL = re.compile(
    r"(?<![\w:])(?:inline\s+)?(?:constinit\s+)?" + _ATOMIC_TYPE +
    r"\s+(\w+)\s*(?:\{|=|;|\[)")
# Accessor returning a function-local static atomic by reference.
_ACCESSOR = re.compile(
    r"(\w+)\s*\(\s*\)\s*(?:noexcept\s*)?\{\s*static\s+" + _ATOMIC_TYPE +
    r"\s+(\w+)[^;]*;\s*return\s+(\w+)\s*;")
_RMW = r"(?:fetch_add|fetch_sub|exchange)"


def _scopes(code: str) -> List[Tuple[int, int, bool]]:
    """(open, close, is_namespace) for every brace pair in `code`."""
    out: List[Tuple[int, int, bool]] = []
    stack: List[Tuple[int, bool]] = []
    for i, c in enumerate(code):
        if c == "{":
            head = code[max(0, i - 200):i]
            ns = re.search(r"(?:\bnamespace\b[\w\s:]*|extern\s*\"\"\s*)$",
                           head) is not None
            stack.append((i, ns))
        elif c == "}" and stack:
            o, ns = stack.pop()
            out.append((o, i, ns))
    return out


def _at_namespace_scope(pos: int, scopes) -> bool:
    return all(ns for o, c, ns in scopes if o < pos < c)


def _line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


def run(ctx) -> List[Finding]:
    findings: List[Finding] = []
    files = [f for f in ctx.model.files
             if ctx.in_fileset(f, config.DATAPATH_FILES)]
    texts: Dict[str, str] = {}
    accessors: Dict[str, Tuple[str, int]] = {}  # name -> (file, decl line)
    shared: Dict[str, Dict[str, int]] = {}      # file -> {var: decl line}
    for f in files:
        path = f if os.path.isabs(f) else os.path.join(ctx.repo_root, f)
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines, _ = strip_noncode(fh.read())
        code = "\n".join(lines)
        texts[f] = code
        scopes = _scopes(code)
        names: Dict[str, int] = {}
        for m in _STATIC_DECL.finditer(code):
            if re.search(r"\bthread_local\s*$", code[:m.start()]):
                continue
            names[m.group(1)] = _line_of(code, m.start())
        for m in _ANY_DECL.finditer(code):
            if _at_namespace_scope(m.start(), scopes):
                names.setdefault(m.group(1), _line_of(code, m.start()))
        for m in _ACCESSOR.finditer(code):
            if m.group(2) == m.group(3):
                accessors[m.group(1)] = (f, _line_of(code, m.start()))
        shared[f] = {n: ln for n, ln in names.items()
                     if not ctx.allowed(f, ln, CHECK_ID)}

    def report(f, pos, what, decl):
        line = _line_of(texts[f], pos)
        if ctx.allowed(f, line, CHECK_ID):
            return
        findings.append(Finding(
            check=CHECK_ID, file=f, line=line,
            message=(f"{what} on process-wide atomic '{decl}' in a datapath "
                     "file: every thread writes one shared cache line. "
                     "Keep the counter per thread / endpoint / VCI and sum "
                     "it when read, or annotate "
                     "`// mpxlint: allow(shared-counter) <reason>`"),
            key=f"{CHECK_ID}:{f}:{decl}.{what}"))

    for f, code in texts.items():
        for name in shared[f]:
            pat = r"(?<![\w.>:])" + re.escape(name) + r"\s*\.\s*(" + _RMW + \
                r")\s*\("
            for m in re.finditer(pat, code):
                report(f, m.start(), m.group(1), name)
        for name, (decl_file, decl_line) in accessors.items():
            if ctx.allowed(decl_file, decl_line, CHECK_ID):
                continue
            pat = r"(?<![\w.>])" + re.escape(name) + \
                r"\s*\(\s*\)\s*\.\s*(" + _RMW + r")\s*\("
            for m in re.finditer(pat, code):
                report(f, m.start(), m.group(1), name + "()")
    return findings
