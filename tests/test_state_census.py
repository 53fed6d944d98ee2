"""Every piece of state the package keeps is read somewhere.

A counter that is raised on every message and never reported costs time on
the hot path and misleads whoever reads the class.  This census walks the
syntax trees: an attribute stored under ``src/repro`` (``x.name = ...``,
``x.name += ...``), a dataclass field or a ``__slots__`` entry declared
there is *kept*; it is
*read* when some module of ``src/``, ``tests/``, ``tools/`` or
``benchmarks/`` loads ``.name`` or holds the string ``"name"`` (a
``getattr`` key, a report key, an ``attrgetter`` argument).  The linter
under ``analysis/`` is a tool of its own and keeps what it likes.  Names
are matched, not classes, so the census can only miss dead state, never
invent it.
"""

from __future__ import annotations

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_PACKAGE = _REPO / "src" / "repro"
_READERS = ("src", "tests", "tools", "benchmarks")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _slots(node: ast.AST) -> list:
    """The string constants of a ``__slots__ = ...`` assignment."""
    if not (isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__" for t in node.targets)):
        return []
    return [c for c in ast.walk(node.value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def kept(tree: ast.AST) -> dict:
    """Attribute stores, dataclass fields and declared slots of one module:
    name -> line."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.setdefault(node.attr, node.lineno)
        elif isinstance(node, ast.Assign):
            for slot in _slots(node):
                if slot.value != "__weakref__":
                    found.setdefault(slot.value, slot.lineno)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.setdefault(item.target.id, item.lineno)
    return found


def read(tree: ast.AST) -> set:
    """Attribute loads and string constants of one module (``__slots__``
    declarations name what is stored, so their strings read nothing)."""
    slots = {id(c) for node in ast.walk(tree) for c in _slots(node)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in slots):
            names.add(node.value)
    return names


def unread_state(package: Path = _PACKAGE, readers=None) -> list:
    """``path:line name`` of every kept name that nothing reads."""
    readers = readers or [_REPO / top for top in _READERS]
    loads: set = set()
    for top in readers:
        for path in sorted(Path(top).rglob("*.py")):
            loads |= read(ast.parse(path.read_text(), str(path)))
    unread = []
    for path in sorted(package.rglob("*.py")):
        if "analysis" in path.relative_to(package).parts:
            continue
        for name, line in kept(ast.parse(path.read_text(), str(path))).items():
            if name not in loads:
                unread.append(f"{path.relative_to(package.parent)}:{line} {name}")
    return unread


def test_every_attribute_and_dataclass_field_is_read_somewhere():
    assert unread_state() == []


def test_the_census_names_a_counter_that_is_only_raised(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "node.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Stats:\n"
        "    sent: int = 0\n"
        "    seen: int = 0\n"
        "class Node:\n"
        "    __slots__ = ('stats', 'spare',\n"
        "                 'idle', '__weakref__')\n"
        "    def __init__(self):\n"
        "        self.stats = Stats()\n"
        "        self.spare = None\n"
        "    def send(self):\n"
        "        self.stats.sent += 1\n"
        "        self.stats.seen += 1\n"
        "        return getattr(self.stats, 'seen')\n")
    # a slot that is stored and never read, and one that is only declared
    assert unread_state(package, [package]) == ["repro/node.py:4 sent",
                                                "repro/node.py:7 spare",
                                                "repro/node.py:8 idle"]


# --------------------------------------------------------------- job options
#: the functions that hand an application its job options: a scenario's
#: ``app()``, ``deploy`` (the join window) and the benchmark's ``options()``
_OPTION_SOURCES = {"src/repro/apps": ("app", "deploy"), "benchmarks": ("options",)}


def _option_reads(tree: ast.AST) -> dict:
    """``options.get("<name>", ...)`` calls of one module: name -> line."""
    found = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant)):
            holder = node.func.value
            if getattr(holder, "id", getattr(holder, "attr", None)) == "options":
                found.setdefault(node.args[0].value, node.lineno)
    return found


def _options_passed(tree: ast.AST, functions: tuple) -> set:
    """The string keys of the dict literals inside the named functions."""
    return {key.value for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in functions
            for inner in ast.walk(node) if isinstance(inner, ast.Dict)
            for key in inner.keys if isinstance(key, ast.Constant)}


def test_every_job_option_an_application_reads_is_one_a_run_passes():
    # an option that only tests set is a hidden axis between runs: it is a
    # module constant instead, and a test sets that
    passed = set()
    for top, functions in _OPTION_SOURCES.items():
        for path in sorted((_REPO / top).rglob("*.py")):
            passed |= _options_passed(ast.parse(path.read_text(), str(path)), functions)
    unpassed = []
    for path in sorted((_PACKAGE / "apps").glob("*.py")):
        for name, line in _option_reads(ast.parse(path.read_text(), str(path))).items():
            if name not in passed:
                unpassed.append(f"{path.relative_to(_REPO)}:{line} {name}")
    assert unpassed == []
