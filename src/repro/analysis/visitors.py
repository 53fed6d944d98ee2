"""AST visitors implementing the determinism rules.

One checker class per rule; each is attached to its
:class:`~repro.analysis.registry.Rule` via
:func:`~repro.analysis.registry.register_checker` and run over a file's
parsed tree by the driver (:mod:`repro.analysis.cli`).  Checkers are purely
syntactic (with a little single-scope type inference for set-typed locals in
DET103) -- they are a linter, not a type checker, so they aim for the
repo's known hazard classes rather than full soundness.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.registry import (
    RULE_CLASS_STATE,
    RULE_ENV_READ,
    RULE_GLOBAL_RNG,
    RULE_UNORDERED_ITER,
    RULE_WALL_CLOCK,
    register_checker,
)
from repro.analysis.report import Finding


class BaseChecker(ast.NodeVisitor):
    """Shared plumbing: finding construction bound to one file."""

    rule = None  # attached by register_checker

    def __init__(self, path: str, source_lines: List[str]):
        self.path = path
        self.source_lines = source_lines
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = ""
        if 1 <= line <= len(self.source_lines):
            text = self.source_lines[line - 1].strip()
        self.findings.append(Finding(
            rule_id=self.rule.id, path=self.path, line=line, col=col,
            message=message, fixit=self.rule.fixit, source_line=text))


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target (``""`` when not a plain name/attribute)."""
    parts = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return ".".join(reversed(parts))
    return ""


# ------------------------------------------------------------------- DET101
#: module-level random functions that mutate/read the process-wide RNG state
_RNG_FUNCS = frozenset({
    "random", "randrange", "randint", "choice", "choices", "sample",
    "shuffle", "uniform", "seed", "getrandbits", "randbytes", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "binomialvariate", "getstate", "setstate",
})


@register_checker(RULE_GLOBAL_RNG)
class GlobalRngChecker(BaseChecker):
    """``random.random()`` & friends, bare ``random.Random()``, and
    ``from random import shuffle``-style imports of the module-global API."""

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "random"
                and node.attr in _RNG_FUNCS):
            self.report(node, f"module-global `random.{node.attr}` "
                              f"shares process-wide RNG state")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (_call_name(node) == "random.Random"
                and not node.args and not node.keywords):
            self.report(node, "bare `random.Random()` seeds from the OS -- "
                              "every run differs")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RNG_FUNCS:
                    self.report(node, f"`from random import {alias.name}` "
                                      f"imports the module-global RNG API")
        self.generic_visit(node)


# ------------------------------------------------------------------- DET102
_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


@register_checker(RULE_WALL_CLOCK)
class WallClockChecker(BaseChecker):
    """``time.time``/``perf_counter``-style reads and ``datetime.now``."""

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name) and value.id == "time" \
                and node.attr in _TIME_FUNCS:
            self.report(node, f"wall-clock read `time.{node.attr}`")
        elif node.attr in _DATETIME_FUNCS:
            # datetime.now(...) or datetime.datetime.now(...)
            if isinstance(value, ast.Name) and value.id in ("datetime", "date"):
                self.report(node, f"wall-clock read `{value.id}.{node.attr}`")
            elif (isinstance(value, ast.Attribute)
                  and value.attr in ("datetime", "date")
                  and isinstance(value.value, ast.Name)
                  and value.value.id == "datetime"):
                self.report(node, f"wall-clock read "
                                  f"`datetime.{value.attr}.{node.attr}`")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FUNCS:
                    self.report(node, f"`from time import {alias.name}` "
                                      f"imports a wall-clock read")
        self.generic_visit(node)


# ------------------------------------------------------------------- DET103
def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-valued: a set literal/comprehension or set(...)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return False


def _set_typed_locals(scope: ast.AST) -> Set[str]:
    """Names assigned only set-valued expressions in this scope (shallow).

    Nested function/class bodies are skipped -- they get their own scope
    when the visitor reaches them.
    """
    assigned: dict = {}

    def _walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        flags = assigned.setdefault(target.id, [])
                        flags.append(_is_set_expr(child.value))
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                if isinstance(child.target, ast.Name):
                    flags = assigned.setdefault(child.target.id, [])
                    flags.append(_is_set_expr(child.value))
            _walk(child)

    _walk(scope)
    return {name for name, flags in assigned.items() if flags and all(flags)}


@register_checker(RULE_UNORDERED_ITER)
class UnorderedIterationChecker(BaseChecker):
    """Set iteration feeding order-sensitive code, ``set.pop()``, and
    ``sorted(..., key=id)``-style object-identity sort keys.

    ``sorted(a_set)`` / ``len`` / ``sum`` / ``min`` / ``max`` / ``any`` /
    ``all`` over a set are naturally not flagged: the set expression is then
    an argument of the order-insensitive call, not the iterable of a loop.
    """

    def __init__(self, path: str, source_lines: List[str]):
        super().__init__(path, source_lines)
        self._set_locals: List[Set[str]] = [set()]

    # ------------------------------------------------------------- scoping
    def visit_Module(self, node: ast.Module) -> None:
        self._set_locals[0] = _set_typed_locals(node)
        self.generic_visit(node)

    def _visit_scope(self, node) -> None:
        self._set_locals.append(_set_typed_locals(node))
        self.generic_visit(node)
        self._set_locals.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope

    def _is_set_name(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Name)
                and any(node.id in scope for scope in self._set_locals))

    def _check_iterable(self, iter_node: ast.AST, where: str) -> None:
        if _is_set_expr(iter_node):
            self.report(iter_node, f"iteration over an unordered set {where}")
        elif self._is_set_name(iter_node):
            self.report(iter_node, f"iteration over set-typed local "
                                   f"`{iter_node.id}` {where}")

    # -------------------------------------------------------------- checks
    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, "in a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_iterable(comp.iter, "in a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building another set keeps the values unordered either way; only
        # flag set-typed *sources* when they feed an ordered container.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in ("list", "tuple") and node.args \
                and _is_set_expr(node.args[0]):
            self.report(node, f"`{name}(set(...))` materialises an "
                              f"unordered set in arbitrary order")
        if name in ("sorted", "min", "max", "list.sort") or name.endswith(".sort"):
            for keyword in node.keywords:
                if keyword.arg == "key" and self._is_identity_key(keyword.value):
                    self.report(keyword.value,
                                f"`{name}` keyed on object identity "
                                f"(`id`/`hash`) varies across runs")
        if name.endswith(".pop") and not node.args:
            target = node.func.value  # type: ignore[union-attr]
            if self._is_set_name(target) or _is_set_expr(target):
                self.report(node, "`set.pop()` removes an arbitrary element")
        self.generic_visit(node)

    @staticmethod
    def _is_identity_key(node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in ("id", "hash"):
            return True
        if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
            func = node.body.func
            return isinstance(func, ast.Name) and func.id in ("id", "hash")
        return False


# ------------------------------------------------------------------- DET104
def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node) in ("list", "dict", "set", "collections.deque",
                                    "deque", "defaultdict",
                                    "collections.defaultdict")
    return False


def _is_counter_call(node: ast.AST) -> bool:
    """``itertools.count(...)`` (or a bare imported ``count(...)``)."""
    return isinstance(node, ast.Call) \
        and _call_name(node) in ("itertools.count", "count")


@register_checker(RULE_CLASS_STATE)
class ClassStateChecker(BaseChecker):
    """Class-body mutable attributes and counters, ``Cls.attr += 1`` mutation.

    Annotated class-body assignments are exempt: they are dataclass /
    typed-field declarations (mutable defaults there are already a
    ``TypeError`` for dataclasses and a deliberate, visible choice
    elsewhere).  The exact PR 2 bug shape -- a class-body ``_next_id = 0``
    bumped via ``SomeClass._next_id += 1`` -- is flagged at both ends, and
    so is its iterator spelling, a class-body ``_ids = itertools.count(1)``
    drained with ``next()`` (no assignment to catch at the use site).  A
    module-level ``_ids = itertools.count(1)`` is the same counter one scope
    up and is flagged too.
    """

    def __init__(self, path: str, source_lines: List[str]):
        super().__init__(path, source_lines)
        self._class_stack: List[str] = []

    def _check_body(self, body: List[ast.stmt], scope: str) -> None:
        """Flag shared state bound directly in a class or module body."""
        for statement in body:
            if not isinstance(statement, ast.Assign):
                continue
            names = ", ".join(t.id for t in statement.targets
                              if isinstance(t, ast.Name))
            if scope == "class" and _is_mutable_literal(statement.value):
                self.report(statement,
                            f"class-level mutable attribute `{names}` is "
                            f"shared by every instance and every simulation")
            elif _is_counter_call(statement.value):
                self.report(statement,
                            f"{scope}-level counter `{names}` is advanced by "
                            f"every simulation in the process")

    def visit_Module(self, node: ast.Module) -> None:
        self._check_body(node.body, "module")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_body(node.body, "class")
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _class_attr_target(self, target: ast.AST) -> str:
        """``Cls.attr`` / ``type(self).attr`` inside ``Cls`` -> ``attr``."""
        if not isinstance(target, ast.Attribute):
            return ""
        value = target.value
        if isinstance(value, ast.Name) and value.id in self._class_stack:
            return f"{value.id}.{target.attr}"
        if isinstance(value, ast.Call) and _call_name(value) == "type" \
                and len(value.args) == 1 \
                and isinstance(value.args[0], ast.Name) \
                and value.args[0].id == "self":
            return f"type(self).{target.attr}"
        return ""

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._class_stack:
            dotted = self._class_attr_target(node.target)
            if dotted:
                self.report(node, f"class-level counter mutation "
                                  f"`{dotted} {type(node.op).__name__}=` "
                                  f"leaks state across simulations")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._class_stack:
            for target in node.targets:
                dotted = self._class_attr_target(target)
                if dotted:
                    self.report(node, f"assignment to class attribute "
                                      f"`{dotted}` mutates shared state")
        self.generic_visit(node)


# ------------------------------------------------------------------- DET105
_OS_READ_FUNCS = frozenset({
    "environ", "getenv", "getcwd", "getcwdb", "listdir", "scandir", "stat",
    "urandom", "uname", "cpu_count", "getloadavg",
})
_OS_PATH_FUNCS = frozenset({
    "exists", "isfile", "isdir", "getsize", "getmtime", "getatime",
})


@register_checker(RULE_ENV_READ)
class EnvironmentReadChecker(BaseChecker):
    """``os.environ`` / ``open()`` / filesystem probes in hot-path packages."""

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name) and value.id == "os" \
                and node.attr in _OS_READ_FUNCS:
            self.report(node, f"host-environment read `os.{node.attr}`")
        elif (isinstance(value, ast.Attribute) and value.attr == "path"
              and isinstance(value.value, ast.Name) and value.value.id == "os"
              and node.attr in _OS_PATH_FUNCS):
            self.report(node, f"filesystem probe `os.path.{node.attr}`")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self.report(node, "direct `open()` on the host filesystem")
        self.generic_visit(node)
