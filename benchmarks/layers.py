"""The layer table: which source file belongs to which layer.

Layers are the repository's modules.  Every file under ``src/repro`` is
named here explicitly — the cold ones as ``other`` — so a module added later
fails ``benchmarks/tests`` (and a traced run) instead of silently landing in
``other``.  Files outside ``src/repro`` (stdlib, networkx, the benchmark's
own driver) are ``other``; the benchmark-owned idle app is the workload's
application and counts as ``apps.workload``.
"""

from __future__ import annotations

import os
import sys

LAYERS = (
    "sim.kernel", "sim.process", "sim.futures", "sim.events_api",
    "net.network", "net.latency", "net.loss", "net.hostload",
    "net.bandwidth", "net.bwalloc",
    "lib.rpc", "lib.sbsocket", "lib.serializer", "lib.ring", "lib.logging",
    "apps.workload", "apps.harness",
    "runtime.controller", "runtime.jobstore", "runtime.splayd",
    "core.jobs", "core.churn", "testbeds", "other",
)

#: path relative to ``src/repro`` -> layer
FILE_LAYER = {
    "sim/kernel.py": "sim.kernel",
    "sim/process.py": "sim.process",
    "sim/futures.py": "sim.futures",
    "sim/events_api.py": "sim.events_api",
    "net/network.py": "net.network",
    "net/message.py": "net.network",
    "net/address.py": "net.network",
    "net/latency.py": "net.latency",
    "net/loss.py": "net.loss",
    "net/hostload.py": "net.hostload",
    "net/bandwidth.py": "net.bandwidth",
    "net/bwalloc.py": "net.bwalloc",
    "lib/rpc.py": "lib.rpc",
    "lib/sbsocket.py": "lib.sbsocket",
    "lib/serializer.py": "lib.serializer",
    "lib/ring.py": "lib.ring",
    "lib/logging.py": "lib.logging",
    "apps/chord.py": "apps.workload",
    "apps/pastry.py": "apps.workload",
    "apps/gossip.py": "apps.workload",
    "apps/dissemination.py": "apps.workload",
    "apps/harness.py": "apps.harness",
    "runtime/controller.py": "runtime.controller",
    "runtime/jobstore.py": "runtime.jobstore",
    "runtime/splayd.py": "runtime.splayd",
    "core/jobs.py": "core.jobs",
    "core/churn.py": "core.churn",
    "testbeds/__init__.py": "testbeds",
    "testbeds/presets.py": "testbeds",
    "testbeds/spec.py": "testbeds",
    "net/topology.py": "testbeds",
    # cold or cross-cutting files
    "analysis/__init__.py": "other",
    "analysis/__main__.py": "other",
    "analysis/cli.py": "other",
    "analysis/registry.py": "other",
    "analysis/report.py": "other",
    "analysis/suppress.py": "other",
    "analysis/visitors.py": "other",
    "apps/__init__.py": "other",
    "apps/registry.py": "other",
    "apps/scenarios.py": "other",
    "core/__init__.py": "other",
    "core/blacklist.py": "other",
    "lib/__init__.py": "other",
    "lib/crypto.py": "other",
    "lib/misc.py": "other",
    "lib/sbfs.py": "other",
    "net/__init__.py": "other",
    "obs/__init__.py": "other",
    "obs/metrics.py": "other",
    "obs/profiler.py": "other",
    "obs/recorder.py": "other",
    "obs/tracing.py": "other",
    "runtime/__init__.py": "other",
    "sim/__init__.py": "other",
    "sim/gcpolicy.py": "other",
    "sim/locks.py": "other",
    "sim/rng.py": "other",
    "sim/sanitizer.py": "other",
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_IDLE_APP = os.path.join(_BENCH_DIR, "idle_app.py")


def layer_of(filename: str, repro_root: str) -> str:
    """Layer of one profiled function's source file.

    ``repro_root`` is the absolute path of ``src/repro``.  Raises
    :class:`KeyError` for a file under it that the table does not name.
    """
    if filename.startswith(repro_root + os.sep):
        return FILE_LAYER[os.path.relpath(filename, repro_root).replace(os.sep, "/")]
    if filename == _IDLE_APP:
        return "apps.workload"
    return "other"


def generated_code_files() -> dict:
    """Code object -> source file, for methods compiled from a string.

    ``dataclasses`` generates ``__init__``/``__eq__`` with ``exec``, so their
    code objects name no file; the class that owns them names its module.
    """
    owners = {}
    for module in list(sys.modules.values()):
        filename = getattr(module, "__file__", None)
        if not filename:
            continue
        for cls in list(vars(module).values()):
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for attribute in vars(cls).values():
                    code = getattr(attribute, "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        owners[code] = filename
    return owners


def layer_account(stats: list, repro_root: str) -> dict:
    """Bucket ``cProfile.Profile.getstats()`` entries into the layer table.

    Returns ``{layer: {"self_ms": ..., "calls": ...}}`` for every layer.
    Self time is ``inlinetime``: the time inside a function minus its
    profiled callees, so layer self times add up to the traced total.
    """
    account = {layer: {"self_ms": 0.0, "calls": 0} for layer in LAYERS}
    generated = generated_code_files()
    for entry in stats:
        # builtins=False: every entry is a Python function with a code object
        filename = generated.get(entry.code, entry.code.co_filename)
        row = account[layer_of(filename, repro_root)]
        row["self_ms"] += 1000.0 * entry.inlinetime
        row["calls"] += entry.callcount
    return account
