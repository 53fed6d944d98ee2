"""Per-line suppressions of linter findings.

A finding is suppressed when its physical source line carries a marker::

    start = time.perf_counter()  # det: ignore[DET102]
    anything_at_all()            # det: ignore          (all rules)

Multiple rule ids are comma-separated: ``# det: ignore[DET101, DET103]``.
Suppression is deliberate and reviewable -- the marker sits on the line it
silences, so `git blame` answers "why is this allowed".
"""

from __future__ import annotations

import re
from typing import Dict, Set

from repro.analysis.report import Finding

#: matches ``# det: ignore`` and ``# det: ignore[DET101, DET102]``
_SUPPRESS_RE = re.compile(
    r"#\s*det:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")

#: sentinel for a bare ``# det: ignore`` (suppresses every rule on the line)
ALL_RULES = "*"


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "det:" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = {ALL_RULES}
        else:
            ids = {r.strip().upper() for r in rules.split(",") if r.strip()}
            suppressions[lineno] = ids or {ALL_RULES}
    return suppressions


def is_suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if not rules:
        return False
    return ALL_RULES in rules or finding.rule_id in rules

