"""The repo-invariant rules of :mod:`repro.san.lint` as an analyzer pass.

Each module is linted with :func:`~repro.san.lint.lint_source`, scoped
to the deterministic core the way the checks define it; the rule ids and
summaries are the lint's own.  A test pins the pass's findings to direct
``lint_source`` calls (tests/analyze/test_migration.py).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from repro.analyze.model import Project
from repro.analyze.rules import Finding, Pass, Rule
from repro.san.lint import STATIC_CHECKS, _in_core, lint_source

FAMILY = "invariant"

RULES: Dict[str, Rule] = {
    cid: Rule(cid, FAMILY, info.summary) for cid, info in STATIC_CHECKS.items()
}


def run(project: Project, enabled: Sequence[str]) -> List[Finding]:
    enabled_set = set(enabled)
    findings: List[Finding] = []
    for mod in project.modules:
        path = Path(mod.path)
        if path.name == "units.py":
            continue  # the units helpers *define* the raw literals
        for lf in lint_source(mod.source, mod.path, scoped=_in_core(path)):
            if lf.check in enabled_set:
                findings.append(
                    Finding(lf.check, lf.path, lf.line, lf.message)
                )
    return findings


PASS = Pass(family=FAMILY, rules=RULES, run=run)
