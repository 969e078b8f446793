"""Check registry and the shared context handed to every check plugin."""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from .. import config
from ..report import Finding


class CheckContext:
    """What a check may see besides the CodeModel."""

    def __init__(self, model, repo_root: str, tsa_baseline: Optional[dict]):
        self.model = model
        self.repo_root = repo_root
        self.tsa_baseline = tsa_baseline or {}
        self.comments: Dict[str, Dict[int, str]] = getattr(
            model, "comments", {})

    def allowed(self, file: str, line: int, check_id: str) -> bool:
        """True if an inline `// mpxlint: allow(check_id)` covers the line."""
        cm = self.comments.get(file, {})
        for ln in (line, line - 1):
            m = re.search(config.ALLOW_RE, cm.get(ln, ""))
            if m:
                tags = {t.strip() for t in m.group(1).split(",")}
                if check_id in tags or "all" in tags:
                    return True
        return False

    @staticmethod
    def in_fileset(file: str, fileset) -> bool:
        f = file.replace("\\", "/")
        return any(f.endswith(s) or f.startswith(s) for s in fileset)


def all_checks():
    from . import (lock_rank, mc_coverage, memory_order, progress_contract,
                   shared_counter, tsa_ratchet)
    return {
        lock_rank.CHECK_ID: lock_rank.run,
        mc_coverage.CHECK_ID: mc_coverage.run,
        memory_order.CHECK_ID: memory_order.run,
        progress_contract.CHECK_ID: progress_contract.run,
        shared_counter.CHECK_ID: shared_counter.run,
        tsa_ratchet.CHECK_ID: tsa_ratchet.run,
    }


def run_checks(model, repo_root: str, only=None,
               tsa_baseline: Optional[dict] = None) -> List[Finding]:
    ctx = CheckContext(model, repo_root, tsa_baseline)
    findings: List[Finding] = []
    for check_id, fn in all_checks().items():
        if only and check_id not in only:
            continue
        findings.extend(fn(ctx))
    return findings
