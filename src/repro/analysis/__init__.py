"""Static analysis proving the simulator's byte-identical guarantee.

Every load-bearing claim in this reproduction -- repeatable experiments,
kernel-swap equivalence, ``--ctl-shards`` parity, ``--jobs N`` parallel
sweeps -- rests on deterministic event order.  This package makes the
hazard classes that have actually broken that guarantee *mechanically
checkable*: a rule-registry-driven AST linter (``python -m repro.analysis``,
rules ``DET101``..``DET105``) with per-line ``# det: ignore[...]``
suppressions, run in CI: any unsuppressed finding fails it.

Its runtime counterpart -- invariant checks at the seams the linter cannot
see -- is the opt-in sanitizer (:mod:`repro.sim.sanitizer`, ``--sanitize``
on every scenario).  ``docs/ANALYSIS.md`` documents both.
"""

from repro.analysis.cli import analyse_source, main, run_analysis
from repro.analysis.registry import Rule, all_rules, applicable_rules, get_rule
from repro.analysis.report import AnalysisResult, Finding

__all__ = [
    "AnalysisResult",
    "Finding",
    "Rule",
    "all_rules",
    "analyse_source",
    "applicable_rules",
    "get_rule",
    "main",
    "run_analysis",
]
