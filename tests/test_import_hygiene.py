"""What a deployment imports: start-up time and RSS are paid per module.

Every benchmark repetition and every pool worker is a fresh interpreter
that compiles what it imports (the sandbox runs without a bytecode cache),
so ``import repro.apps.harness`` — all a deployment needs — must not drag
in the observation planes, the linter, the CLI, a workload nobody asked
for, or a third-party graph library.

Nor may a whole run load OpenSSL: ``hashlib`` and ``hmac`` map libcrypto,
resident pages that tracemalloc (and so ``tests/test_memory.py``) cannot
see. A run hashes with the interpreter's built-in SHA modules
(``repro.sim.rng``); these probes are the gate for that.
"""

import json
import os
import subprocess
import sys

#: modules that map OpenSSL or that only an app or a CDF writer asks for
NOT_IN_A_RUN = ["_hashlib", "hashlib", "hmac", "csv", "repro.lib.crypto"]

LEFT_OUT = ["networkx", "repro.obs", "repro.analysis", "repro.apps.scenarios",
            "repro.apps.chord", "repro.sim.sanitizer", "repro.sim.locks",
            *NOT_IN_A_RUN]


def _loaded_after(setup: str, modules: list) -> list:
    probe = (f"import json, sys; {setup}; "
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    # the child imports from wherever this process does
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_harness_leaves_cold_modules_out():
    assert _loaded_after("import repro.apps.harness", LEFT_OUT) == []


def test_a_whole_run_of_every_workload_loads_no_openssl():
    # every bundled app imported, then one deployment and its report digest,
    # which hash the substream seeds, the hash_key node ids and the report
    setup = ("import repro.apps.chord, repro.apps.pastry, repro.apps.gossip, "
             "repro.apps.dissemination; from repro.apps import harness; "
             "report = repro.apps.chord.run_chord_scenario("
             "harness.RunConfig(nodes=8, hosts=4, seed=1, churn=True, "
             "join_window=20.0, settle=20.0), lookups=5); "
             "assert len(harness.report_digest(report)) == 16")
    assert _loaded_after(setup, NOT_IN_A_RUN) == []


def test_an_app_still_gets_the_crypto_library_on_request():
    from repro.lib import crypto

    assert crypto.sha1(b"abc").hexdigest() == "a9993e364706816aba3e25717850c26c9cd0d89d"
    tag = crypto.hmac.new(b"key", b"data", "sha1").hexdigest()
    assert crypto.hmac.compare_digest(tag, "104152c5bfdca07bc633eebd46199f0255c9f49d")
