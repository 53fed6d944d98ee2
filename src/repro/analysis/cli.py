"""Driver and command line of the determinism linter.

``python -m repro.analysis [paths...]`` analyses ``src/repro`` by default,
applies per-line ``# det: ignore[...]`` suppressions, prints the findings
left and exits 1 when any remain, 0 otherwise.  ``--verbose`` also prints
the suppressed findings; ``--list-rules`` describes every rule.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import List, Optional

from repro.analysis import suppress
from repro.analysis.registry import all_rules, applicable_rules
from repro.analysis.report import AnalysisResult, Finding, render_text

DEFAULT_TARGET = os.path.join("src", "repro")


def _norm(path: str) -> str:
    """Stable path: relative to cwd, forward slashes."""
    rel = os.path.relpath(path)
    if rel.startswith(".."):
        rel = path  # outside the tree: keep it absolute rather than ../../
    return rel.replace(os.sep, "/")


def discover_files(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d != "__pycache__" and not d.startswith("."))
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
    return sorted(dict.fromkeys(_norm(f) for f in files))


def analyse_source(path: str, source: str) -> List[Finding]:
    """Run every applicable rule over one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule_id="DET000", path=path,
                        line=exc.lineno or 1, col=exc.offset or 0,
                        message=f"syntax error: {exc.msg}",
                        fixit="fix the syntax error so the file can be analysed")]
    findings: List[Finding] = []
    for rule in applicable_rules(path):
        checker = rule.checker(path)
        checker.visit(tree)
        findings.extend(checker.findings)
    suppressions = suppress.parse_suppressions(source)
    for finding in findings:
        finding.suppressed = suppress.is_suppressed(finding, suppressions)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def run_analysis(paths: List[str]) -> AnalysisResult:
    """Analyse ``paths``; the library entry point."""
    result = AnalysisResult()
    for path in discover_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"warning: cannot read {path}: {exc}", file=sys.stderr)
            continue
        result.files_analysed += 1
        result.findings.extend(analyse_source(path, source))
    return result


def _list_rules() -> str:
    lines = ["rule     name                  scope"]
    for rule in all_rules():
        scope = ",".join(rule.scope) if rule.scope else "(all analysed files)"
        lines.append(f"{rule.id}   {rule.name:<21} {scope}")
        lines.append(f"         {rule.summary}")
        lines.append(f"         fix: {rule.fixit}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism linter: flags the nondeterminism hazard "
                    "classes that have actually bitten this simulator "
                    "(module-global RNG, wall clocks, set ordering, "
                    "class-level state, environment reads).")
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"files/directories to analyse "
                             f"(default: {DEFAULT_TARGET})")
    parser.add_argument("--verbose", action="store_true",
                        help="also print suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    result = run_analysis(args.paths or [DEFAULT_TARGET])
    print(render_text(result, verbose=args.verbose))
    return 1 if result.active_findings else 0
