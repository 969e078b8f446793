"""memory-order: pairing analysis per atomic member + implicit seq_cst.

Three rules:

  pairing     — per atomic member across the whole TU set: a release
                store with no acquire/consume-side load or RMW anywhere
                (the published data has no reader ordering onto it), or
                an acquire load with no release-side store/RMW (there is
                nothing to synchronize with), is a finding. `forwarded`
                orders (an `mo`/`order` parameter) satisfy both sides.

  mixed-store — a relaxed store to a member that elsewhere uses release
                stores: the relaxed path silently breaks the publish
                protocol on that member.

  implicit    — any atomic op without an explicit order argument is an
                implicit seq_cst; flagged unless annotated
                `// mo: seq_cst intentional` on the same or prior line.
"""

from __future__ import annotations

from typing import Dict, List

from .. import config
from ..model import ATOMIC_KINDS
from ..report import Finding

CHECK_ID = "memory-order"

_RELEASE_SIDE = {"release", "acq_rel", "seq_cst", "forwarded"}
_ACQUIRE_SIDE = {"acquire", "consume", "acq_rel", "seq_cst", "forwarded"}
_RMW_OPS = {"exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
            "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
            "test_and_set"}


def run(ctx) -> List[Finding]:
    model = ctx.model
    findings: List[Finding] = []

    # Group ops over resolved atomic members, excluding the mc shim layer
    # (it forwards orders by design).
    groups: Dict[str, List] = {}
    for fn in model.functions:
        if ctx.in_fileset(fn.file, config.MC_SHIM_FILES):
            continue
        for op in fn.atomic_ops:
            # implicit-seq_cst rule (engine-resolved or not).
            if not op.orders and not op.annotated_intentional and \
                    not ctx.allowed(fn.file, op.line, CHECK_ID):
                findings.append(Finding(
                    check=CHECK_ID, file=fn.file, line=op.line,
                    message=(f"atomic {op.op} on '{op.obj_expr}' without an "
                             "explicit memory order (implicit seq_cst); "
                             "state the order, or annotate "
                             "`// mo: seq_cst intentional`"),
                    key=(f"{CHECK_ID}:implicit:{fn.file}:"
                         f"{fn.name}:{op.obj_expr}.{op.op}")))
            if op.cls is None:
                continue
            c = model.classes.get(op.cls)
            f = c.field(op.member) if c else None
            if f is None or f.kind not in ATOMIC_KINDS:
                continue
            if CHECK_ID in f.allow:
                continue
            groups.setdefault(f"{op.cls}::{op.member}", []).append((fn, op))

    for key, ops in sorted(groups.items()):
        orders_all = set()
        for _, op in ops:
            orders_all |= op.orders if op.orders else {"seq_cst"}
        release_side = any(
            (op.op == "store" or op.op in _RMW_OPS) and
            ((op.orders or {"seq_cst"}) & _RELEASE_SIDE)
            for _, op in ops)
        acquire_side = any(
            (op.op == "load" or op.op in _RMW_OPS) and
            ((op.orders or {"seq_cst"}) & _ACQUIRE_SIDE)
            for _, op in ops)
        rel_stores = [(fn, op) for fn, op in ops
                      if op.op == "store" and "release" in op.orders]
        acq_loads = [(fn, op) for fn, op in ops
                     if op.op == "load" and
                     (op.orders & {"acquire", "consume"})]

        if rel_stores and not acquire_side:
            fn, op = rel_stores[0]
            if not ctx.allowed(fn.file, op.line, CHECK_ID):
                findings.append(Finding(
                    check=CHECK_ID, file=fn.file, line=op.line,
                    message=(f"release store to {key} has no acquire/"
                             "consume-side load or RMW anywhere in the "
                             "scanned TU set: nothing orders readers "
                             "after this publish"),
                    key=f"{CHECK_ID}:unpaired-release:{key}"))
        if acq_loads and not release_side:
            fn, op = acq_loads[0]
            if not ctx.allowed(fn.file, op.line, CHECK_ID):
                findings.append(Finding(
                    check=CHECK_ID, file=fn.file, line=op.line,
                    message=(f"acquire load of {key} has no release-side "
                             "store or RMW anywhere in the scanned TU "
                             "set: there is nothing to synchronize with "
                             "(did you mean relaxed?)"),
                    key=f"{CHECK_ID}:unpaired-acquire:{key}"))
        # mixed-store: relaxed store on a member that publishes elsewhere.
        if rel_stores:
            for fn, op in ops:
                if op.op == "store" and op.orders == {"relaxed"} and \
                        not ctx.allowed(fn.file, op.line, CHECK_ID):
                    findings.append(Finding(
                        check=CHECK_ID, file=fn.file, line=op.line,
                        message=(f"relaxed store to {key}, which is "
                                 "published with release stores "
                                 "elsewhere: this path breaks the "
                                 "member's publish protocol"),
                        key=(f"{CHECK_ID}:mixed-store:{key}:"
                             f"{fn.name}")))
    return findings
