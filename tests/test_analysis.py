"""Determinism linter: per-rule fixtures (positive, negative, suppressed),
CLI exit codes, and the cleanliness of the tree itself."""

import os
import shutil
import subprocess
import textwrap

import pytest

from repro.analysis import analyse_source, run_analysis
from repro.analysis.cli import main
from repro.analysis.registry import all_rules, applicable_rules, known_rule_ids

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: fixture path inside every rule's scope (DET105 is scoped to sim/net/lib)
SIM_PATH = "src/repro/sim/example.py"


def _active_ids(source, path=SIM_PATH):
    findings = analyse_source(path, textwrap.dedent(source))
    return [f.rule_id for f in findings if f.active]


# ------------------------------------------------------------------ registry
def test_registry_exposes_the_five_rules():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) == {"DET101", "DET102", "DET103", "DET104", "DET105"}
    assert set(known_rule_ids()) == set(ids)
    for rule in all_rules():
        assert rule.summary and rule.fixit and rule.checker is not None


def test_det105_is_scoped_to_hot_paths_and_det101_exempts_rng_module():
    sim_rules = {r.id for r in applicable_rules("src/repro/sim/kernel.py")}
    app_rules = {r.id for r in applicable_rules("src/repro/apps/chord.py")}
    assert "DET105" in sim_rules
    assert "DET105" not in app_rules
    rng_rules = {r.id for r in applicable_rules("src/repro/sim/rng.py")}
    assert "DET101" not in rng_rules  # substream() wraps random by design


# ------------------------------------------------------- DET101: global RNG
def test_det101_flags_module_global_rng_calls():
    assert "DET101" in _active_ids("""
        import random
        value = random.random()
    """)
    assert "DET101" in _active_ids("""
        import random
        rng = random.Random()
    """)
    assert "DET101" in _active_ids("""
        from random import randint
    """)


def test_det101_allows_seeded_generators_and_substreams():
    assert "DET101" not in _active_ids("""
        import random
        rng = random.Random(42)
        value = rng.random()
    """)
    assert "DET101" not in _active_ids("""
        from repro.sim.rng import substream
        rng = substream(7, "churn")
    """)


# ------------------------------------------------------ DET102: wall clocks
def test_det102_flags_wall_clock_reads():
    assert "DET102" in _active_ids("""
        import time
        start = time.time()
    """)
    assert "DET102" in _active_ids("""
        import time
        start = time.perf_counter()
    """)
    assert "DET102" in _active_ids("""
        import datetime
        today = datetime.datetime.now()
    """)
    assert "DET102" in _active_ids("""
        from time import monotonic
    """)


def test_det102_allows_virtual_time():
    assert "DET102" not in _active_ids("""
        def handler(sim):
            return sim.now
    """)
    assert "DET102" not in _active_ids("""
        import time
        time.sleep(1)
    """)


# --------------------------------------------- DET103: unordered iteration
def test_det103_flags_set_iteration_and_identity_sort_keys():
    assert "DET103" in _active_ids("""
        for item in {1, 2, 3}:
            print(item)
    """)
    assert "DET103" in _active_ids("""
        def drain(items):
            live = set(items)
            for item in live:
                print(item)
    """)
    assert "DET103" in _active_ids("""
        def dedupe(items):
            return list(set(items))
    """)
    assert "DET103" in _active_ids("""
        def order(items):
            return sorted(items, key=id)
    """)
    assert "DET103" in _active_ids("""
        def pick(items):
            live = set(items)
            return live.pop()
    """)


def test_det103_allows_sorted_sets_and_list_pops():
    assert "DET103" not in _active_ids("""
        def dedupe(items):
            return sorted(set(items))
    """)
    assert "DET103" not in _active_ids("""
        def drain(items):
            live = set(items)
            for item in sorted(live):
                print(item)
    """)
    assert "DET103" not in _active_ids("""
        def take(stack):
            return stack.pop()

        def run():
            queue = [1, 2]
            return queue.pop()
    """)


# ----------------------------------------------- DET104: class-level state
def test_det104_flags_class_level_mutable_state_and_counters():
    assert "DET104" in _active_ids("""
        class Registry:
            instances = []
    """)
    assert "DET104" in _active_ids("""
        class Node:
            counter = 0

            def allocate(self):
                Node.counter += 1
                return Node.counter
    """)
    assert "DET104" in _active_ids("""
        class Node:
            def allocate(self):
                type(self).counter += 1
    """)


def test_det104_flags_class_body_itertools_counters():
    # The shape Instance._serials had: nothing is assigned at the use site
    # (``next(Cls._serials)``), so the class-body declaration is the only
    # place the linter can see the process-wide counter.
    assert "DET104" in _active_ids("""
        import itertools

        class Instance:
            _serials = itertools.count(1)

            def __init__(self):
                self.serial = next(Instance._serials)
    """)
    assert "DET104" in _active_ids("""
        from itertools import count

        class Instance:
            _serials = count()
    """)
    assert "DET104" not in _active_ids("""
        import itertools

        class Allocator:
            def __init__(self):
                self._ids = itertools.count(1)
    """)


def test_det104_flags_module_level_itertools_counters():
    # The shape net/message._msg_counter and core/jobs._job_ids had: two
    # seeded simulations in one process draw from the same sequence.
    assert "DET104" in _active_ids("""
        import itertools

        _msg_counter = itertools.count(1)

        class Message:
            def __init__(self):
                self.msg_id = next(_msg_counter)
    """)
    assert "DET104" in _active_ids("""
        from itertools import count

        _ids = count()
    """)
    assert "DET104" not in _active_ids("""
        import itertools

        def numbered(items):
            ids = itertools.count(1)
            return [(next(ids), item) for item in items]
    """)


def test_det104_allows_instance_state_and_immutable_class_constants():
    assert "DET104" not in _active_ids("""
        class Node:
            DEFAULT_PORT = 20000

            def __init__(self):
                self.peers = []
    """)


# ------------------------------------------------ DET105: environment reads
def test_det105_flags_environment_and_filesystem_reads_in_hot_paths():
    assert "DET105" in _active_ids("""
        import os
        debug = os.environ.get("DEBUG")
    """)
    assert "DET105" in _active_ids("""
        import os
        level = os.getenv("LEVEL")
    """)
    assert "DET105" in _active_ids("""
        def load(path):
            with open(path) as handle:
                return handle.read()
    """)


def test_det105_does_not_apply_outside_sim_net_lib():
    source = """
        import os
        debug = os.environ.get("DEBUG")
    """
    assert "DET105" not in _active_ids(source, path="src/repro/apps/tool.py")


def test_det105_allows_method_named_open():
    assert "DET105" not in _active_ids("""
        def read(fs, path):
            return fs.open(path)
    """)


# ------------------------------------------------------------- suppressions
def test_targeted_suppression_silences_only_the_named_rule():
    findings = analyse_source(SIM_PATH, textwrap.dedent("""
        import time
        start = time.perf_counter()  # det: ignore[DET102] -- bench timing
    """))
    det102 = [f for f in findings if f.rule_id == "DET102"]
    assert det102 and all(f.suppressed for f in det102)


def test_bare_suppression_silences_every_rule_on_the_line():
    findings = analyse_source(SIM_PATH, textwrap.dedent("""
        import time
        start = time.time()  # det: ignore
    """))
    assert all(f.suppressed for f in findings if f.line == 3)


def test_suppression_for_a_different_rule_does_not_apply():
    findings = analyse_source(SIM_PATH, textwrap.dedent("""
        import time
        start = time.time()  # det: ignore[DET101]
    """))
    det102 = [f for f in findings if f.rule_id == "DET102"]
    assert det102 and all(not f.suppressed for f in det102)


# ---------------------------------------------------------------- CLI modes
def test_cli_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "src" / "repro" / "sim" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\nstart = time.time()\n", encoding="utf-8")

    # A finding fails the run.
    assert main([str(dirty)]) == 1
    assert "DET102" in capsys.readouterr().out

    # Suppressed in place: the run passes, and --verbose still shows it.
    dirty.write_text("import time\nstart = time.time()  # det: ignore[DET102]\n",
                     encoding="utf-8")
    assert main([str(dirty)]) == 0
    capsys.readouterr()
    assert main([str(dirty), "--verbose"]) == 0
    assert "[suppressed]" in capsys.readouterr().out

    # A file that does not parse is a finding too.
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert main([str(bad)]) == 1

    assert main(["--list-rules"]) == 0
    assert "DET101" in capsys.readouterr().out


def test_cli_reports_syntax_errors_as_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    findings = run_analysis([str(bad)]).findings
    assert [f.rule_id for f in findings] == ["DET000"] and findings[0].active


# ------------------------------------------------------------ tree is clean
def test_repository_tree_is_clean_against_the_committed_baseline():
    # Every finding in the tree is fixed or suppressed in place.
    result = run_analysis([os.path.join(ROOT, "src", "repro")])
    assert result.files_analysed > 40
    offenders = [f.location() + " " + f.rule_id for f in result.active_findings]
    assert offenders == []
    # The deliberate wall-clock reads (bench timing) are suppressed in place.
    assert {f.rule_id for f in result.suppressed_findings} == {"DET102"}


@pytest.mark.skipif(shutil.which("ruff") is None,
                    reason="ruff not installed (CI installs the pin)")
def test_ruff_hygiene_set_is_clean():
    # Same invocation as the CI analysis job; the rule set comes from
    # [tool.ruff.lint] in pyproject.toml.
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "tools"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
