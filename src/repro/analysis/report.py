"""Findings and their text rendering (for humans and CI logs)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class Finding:
    """One linter hit: a rule violated at a specific source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    fixit: str
    #: set when a `# det: ignore[...]` comment covers this line
    suppressed: bool = False

    @property
    def active(self) -> bool:
        """True when the finding should fail the run (unsuppressed)."""
        return not self.suppressed

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class AnalysisResult:
    """Everything one linter run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_analysed: int = 0

    @property
    def active_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = []
    for finding in result.findings:
        if finding.active:
            lines.append(f"{finding.location()}: {finding.rule_id} {finding.message}")
            lines.append(f"    fix: {finding.fixit}")
        elif verbose:
            lines.append(f"{finding.location()}: {finding.rule_id} "
                         f"{finding.message} [suppressed]")
    lines.append(
        f"analysed {result.files_analysed} files: "
        f"{len(result.active_findings)} finding(s), "
        f"{len(result.suppressed_findings)} suppressed")
    return "\n".join(lines)
