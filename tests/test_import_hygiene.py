"""What a deployment imports: start-up time and RSS are paid per module.

Every benchmark repetition and every pool worker is a fresh interpreter
that compiles what it imports (the sandbox runs without a bytecode cache),
so ``import repro.apps.harness`` — all a deployment needs — must not drag
in the observation planes, the linter, the CLI, a workload nobody asked
for, or a third-party graph library.
"""

import json
import os
import subprocess
import sys

LEFT_OUT = ["networkx", "repro.obs", "repro.analysis", "repro.apps.scenarios",
            "repro.apps.chord", "repro.sim.sanitizer", "repro.sim.locks"]


def test_importing_the_harness_leaves_cold_modules_out():
    probe = ("import json, sys; import repro.apps.harness; "
             f"print(json.dumps([m for m in {LEFT_OUT!r} if m in sys.modules]))")
    # the child imports from wherever this process does
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
