"""Per-node memory: the 1k-node deploy must stay under a committed ceiling.

The tentpole perf work made per-instance state lazy (log buffers, RPC
stats, drop RNGs), put ``__slots__`` on the hot classes and interned host
IPs; this test pins the result so a future change cannot quietly re-inflate
the per-node footprint.  ``tracemalloc`` counts Python-allocator bytes
only — a stable, platform-independent proxy for the RSS the scale bench
measures end to end.
"""

import tracemalloc

from repro.apps import harness
from repro.apps.chord import chord_factory

#: committed ceiling for Python-allocated bytes per deployed node (the
#: measured footprint is ~11 KB/node; the headroom absorbs allocator and
#: version noise without letting a per-instance eager buffer sneak back in)
PER_NODE_CEILING_BYTES = 16_384


def test_thousand_node_deploy_stays_under_per_node_memory_ceiling():
    nodes = 1000
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        deployment = harness.deploy("chord-mem", chord_factory(), nodes=nodes,
                                    seed=5, join_window=30.0, settle=20.0,
                                    gc_policy="off")
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deployment.job.stats.instances_started == nodes
    per_node = (current - base) / nodes
    assert per_node < PER_NODE_CEILING_BYTES, (
        f"{per_node:.0f} bytes/node exceeds the committed ceiling of "
        f"{PER_NODE_CEILING_BYTES} — did per-instance state become eager "
        f"again (log buffers, RPC stats, drop RNGs)?")


#: committed ceiling for Python-allocated bytes per *idle* instance: what a
#: spawn itself allocates (context, events, socket, logger, RPC service,
#: handle, table entries) before the application does anything.  Measured
#: ~2.4 KB; it was ~4.1 KB while the sandbox FS, log sink and budget, RPC
#: built-in table, options copy and reap closure were built per instance.
IDLE_INSTANCE_CEILING_BYTES = 2_900


def test_idle_instance_stays_under_its_memory_ceiling():
    deployment = harness.deploy("idle-mem", lambda instance: None, nodes=500,
                                hosts=500, seed=5, join_window=0.0,
                                warmup_grace=0.0, settle=0.0, gc_policy="off")
    extra = 1000
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        started = deployment.controller.start_instances(deployment.job, extra)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(started) == extra
    per_instance = (current - base) / extra
    assert per_instance < IDLE_INSTANCE_CEILING_BYTES, (
        f"{per_instance:.0f} bytes per idle instance exceeds the committed "
        f"ceiling of {IDLE_INSTANCE_CEILING_BYTES} — did a spawn start "
        f"building per-instance objects an idle instance never touches?")
