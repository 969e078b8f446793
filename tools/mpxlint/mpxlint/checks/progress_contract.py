"""progress-contract: poll/idle must never block or re-enter progress.

Roots are the poll/idle overrides of ProgressSource subclasses, plus the
external progress-driver loops in config.PROGRESS_DRIVER_ROOTS (the
adaptive engine's worker loops, which drive compiled stage tables from
their own threads). For driver roots the progress entry points themselves
(config.PROGRESS_ENTRY_CALL_NAMES) are allowed boundaries — calling them
is the driver's job — and so is the idle loop the root runs as its own body
(config.PROGRESS_DRIVER_LOOP_CALL_NAMES, called directly in the root), but
the rest of the contract is identical. From each
root the check walks the in-tree call graph (name-level; member calls
resolve through receiver types, virtual calls expand to every in-model
override in derived classes) and flags:

  * any reachable call to a blocking wait (config.BLOCKING_CALL_NAMES) —
    poll() runs inside progress; waiting inside progress is the paper's
    §3.4 deadlock;
  * any reachable acquisition of a lock ranked in
    config.PROGRESS_FORBIDDEN_RANKS (`vci`, `stream`): poll/idle already
    run under a vci-ranked lock, so taking another progress-engine lock
    re-enters the engine;
  * any reachable call into the collective schedule verifier
    (config.PROGRESS_VERIFIER_CALL_NAMES) — the verifier is a compile-path
    tool (unbounded allocation, global event-graph construction) and must
    never run inside progress.

Calls through std::function / stored hooks are invisible to the static
pass (documented limitation; the mc progress tests cover those).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import config
from ..model import Function
from ..report import Finding

CHECK_ID = "progress-contract"


def _progress_roots(ctx) -> List[Function]:
    model = ctx.model
    source_classes = {c.name for c in
                      model.derived_of(config.PROGRESS_SOURCE_BASE)}
    return [fn for fn in model.functions
            if fn.cls in source_classes and fn.name in ("poll", "idle")]


def _driver_roots(ctx) -> List[Function]:
    return [fn for fn in ctx.model.functions
            if (fn.cls, fn.name) in config.PROGRESS_DRIVER_ROOTS]


def _resolve_callees(ctx, caller: Function, call) -> List[Function]:
    """All in-model functions a call may dispatch to.

    Resolution is deliberately conservative-quiet: a member call whose
    receiver class cannot be determined resolves to nothing rather than
    to every same-named method in the model (which would drown the check
    in false paths through generic names like `poll`/`push`)."""
    model = ctx.model
    if call.recv_cls is not None:
        out: List[Function] = []
        classes = {call.recv_cls}
        classes.update(c.name for c in model.derived_of(call.recv_cls))
        for cls in classes:
            out.extend(model.methods_of(cls, call.name))
        return out
    # Free/unqualified call: free functions + methods of the caller's own
    # class (implicit this->).
    return [f for f in model.functions_named(call.name)
            if f.cls is None or (caller.cls and f.cls == caller.cls)]


def run(ctx) -> List[Finding]:
    findings: List[Finding] = []
    roots = [(r, False) for r in _progress_roots(ctx)]
    roots += [(r, True) for r in _driver_roots(ctx)]
    for root, is_driver in roots:
        seen: Set[str] = set()
        # (function, path-so-far)
        stack: List[Tuple[Function, List[str]]] = [(root, [])]
        while stack:
            fn, path = stack.pop()
            if fn.key in seen:
                continue
            seen.add(fn.key)
            label = f"{fn.cls + '::' if fn.cls else ''}{fn.name}"
            here = path + [label]
            if CHECK_ID in fn.allow:
                continue
            for a in fn.acquires:
                if a.rank in config.PROGRESS_FORBIDDEN_RANKS and \
                        not ctx.allowed(fn.file, a.line, CHECK_ID):
                    findings.append(Finding(
                        check=CHECK_ID, file=fn.file, line=a.line,
                        message=(f"{_root_label(root)} reaches an "
                                 f"acquisition of '{a.expr}' (rank "
                                 f"{a.rank}) via "
                                 f"{' -> '.join(here)}: progress sources "
                                 "run under the VCI lock and must not "
                                 "re-enter progress-engine locks"),
                        key=(f"{CHECK_ID}:rank:{_root_label(root)}:"
                             f"{label}:{a.expr}")))
            for call in fn.calls:
                if is_driver and call.name in config.PROGRESS_ENTRY_CALL_NAMES:
                    # Driving a progress entry point is what a driver root
                    # is for; the entry acquires the VCI lock internally
                    # and is not traversed further.
                    continue
                if is_driver and fn is root and \
                        call.name in config.PROGRESS_DRIVER_LOOP_CALL_NAMES:
                    # The root's own idle loop, not a nested wait.
                    continue
                if call.name in config.BLOCKING_CALL_NAMES:
                    if not ctx.allowed(fn.file, call.line, CHECK_ID):
                        findings.append(Finding(
                            check=CHECK_ID, file=fn.file, line=call.line,
                            message=(f"{_root_label(root)} reaches "
                                     f"blocking call '{call.name}' via "
                                     f"{' -> '.join(here)}: waiting "
                                     "inside progress deadlocks "
                                     "(paper §3.4)"),
                            key=(f"{CHECK_ID}:block:{_root_label(root)}:"
                                 f"{label}:{call.name}")))
                    continue
                if call.name in config.PROGRESS_VERIFIER_CALL_NAMES:
                    if not ctx.allowed(fn.file, call.line, CHECK_ID):
                        findings.append(Finding(
                            check=CHECK_ID, file=fn.file, line=call.line,
                            message=(f"{_root_label(root)} reaches "
                                     f"schedule-verifier entry "
                                     f"'{call.name}' via "
                                     f"{' -> '.join(here)}: the verifier "
                                     "is compile-path only (it allocates "
                                     "and builds a global event graph) "
                                     "and must never run inside progress"),
                            key=(f"{CHECK_ID}:verify:{_root_label(root)}:"
                                 f"{label}:{call.name}")))
                    continue
                if call.name in config.PROGRESS_CONTROL_CALL_NAMES:
                    if not ctx.allowed(fn.file, call.line, CHECK_ID):
                        findings.append(Finding(
                            check=CHECK_ID, file=fn.file, line=call.line,
                            message=(f"{_root_label(root)} reaches "
                                     f"control-plane mutation "
                                     f"'{call.name}' via "
                                     f"{' -> '.join(here)}: topology "
                                     "writers take the control mutex "
                                     "(rank below vci) and drive progress "
                                     "while holding it — poll contexts may "
                                     "only READ the snapshot (TopoRef "
                                     "acquire-load)"),
                            key=(f"{CHECK_ID}:control:{_root_label(root)}:"
                                 f"{label}:{call.name}")))
                    continue
                for callee in _resolve_callees(ctx, fn, call):
                    if callee.key not in seen:
                        stack.append((callee, here))
    return findings


def _root_label(root: Function) -> str:
    return f"{root.cls}::{root.name}"
