"""Frozen workload parameters, and the seed -> inputs generator.

Everything a repetition consumes comes out of :func:`make_inputs` as one
JSON-able dict: sizes, windows, churn-script and availability-trace text,
and the per-client key and origin streams.  The program under test sees
only these generated inputs; the same ``(workload, seed)`` always yields the
same dict.  Changing a value in :data:`PARAMS` changes what the benchmark
measures and is a new ``benchmark`` issue (see README).
"""

from __future__ import annotations

import random

#: closed loop: a client issues its next operation this long after the
#: previous one completed
THINK_S = 0.25

WORKLOADS = ("chord_steady", "pastry_churn_planetlab", "dissemination_swarm",
             "deploy_churn_idle")

#: full-size parameters, calibrated once on the reference box so that one
#: untraced repetition takes about five host seconds.  ``slice_sim_s`` is the
#: simulated length of one timed slice (see ``estimate.py``): short enough
#: that every workload has a few dozen slices.  ``env_seed`` freezes the
#: environment of a workload — topology, placement, join schedule, loss
#: draws, churn — so that ``--seed`` varies only the workload's own input:
#: the key and origin streams of the two lookup workloads, the size of the
#: swarm's file.  ``deploy_churn_idle`` has no such input and varies little
#: anyway, so there ``--seed`` is the deployment's root seed.
PARAMS = {
    "chord_steady": {
        "env_seed": 2009,
        "testbed": "transit-stub", "nodes": 150, "hosts": 75, "bits": 32,
        "join_window": 120.0, "warmup_grace": 60.0, "settle": 120.0,
        "clients": 12, "ops_per_client": 100, "tail_percentile": 99,
        "measure_seconds": 240.0, "slice_sim_s": 20.0,
    },
    "pastry_churn_planetlab": {
        "env_seed": 2009,
        "testbed": "planetlab", "nodes": 150, "hosts": 75, "bits": 32,
        "base_bits": 4,
        "join_window": 120.0, "warmup_grace": 60.0, "settle": 0.0,
        # p95, not p99: under churn the latency distribution is a ladder of
        # 3 s timeout-and-retry steps, and p99 sits on a step's edge, where
        # one lookup more or less moves it by seconds
        "clients": 6, "ops_per_client": 200, "tail_percentile": 95,
        "churn_seconds": 400.0, "trace_hosts": 20,
        "trace_mean_up": 400.0, "trace_mean_down": 40.0,
        "measure_seconds": 260.0, "slice_sim_s": 20.0,
    },
    "dissemination_swarm": {
        "env_seed": 2009,
        "testbed": "transit-stub", "nodes": 300, "hosts": 50,
        "chunks": 32, "chunk_size": 65536, "chunk_size_jitter": 1024,
        "join_window": 30.0, "warmup_grace": 0.0, "settle": 0.0,
        "tail_percentile": 95, "horizon": 3000.0,
        "slice_sim_s": 2.0,
    },
    "deploy_churn_idle": {
        "testbed": "transit-stub", "nodes": 8000, "hosts": 4000,
        "ctl_shards": 4,
        "join_window": 0.0, "warmup_grace": 0.0, "settle": 0.0,
        "churn_seconds": 120.0, "tail_percentile": 99,
        "boot_min_s": 0.05, "boot_max_s": 0.5, "boot_table": 4096,
        "slice_sim_s": 5.0,
    },
}

#: size overrides for ``benchmarks/tests`` (a repetition takes about a second)
SMALL = {
    "chord_steady": {"nodes": 24, "hosts": 12, "join_window": 40.0,
                     "settle": 60.0, "clients": 2, "ops_per_client": 10,
                     "measure_seconds": 20.0},
    "pastry_churn_planetlab": {"nodes": 24, "hosts": 12, "join_window": 40.0,
                               "clients": 2, "ops_per_client": 80,
                               "churn_seconds": 120.0, "trace_hosts": 4,
                               "measure_seconds": 40.0},
    "dissemination_swarm": {"nodes": 16, "hosts": 8, "chunks": 8},
    "deploy_churn_idle": {"nodes": 200, "hosts": 100, "churn_seconds": 40.0},
}


def _rng(workload: str, seed: int, label: str) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{label}")


def _lookup_clients(params: dict, workload: str, seed: int) -> list:
    """Per-client streams: the key to look up and a draw selecting the origin."""
    clients = []
    for index in range(params["clients"]):
        rng = _rng(workload, seed, f"client{index}")
        count = params["ops_per_client"]
        clients.append({
            "keys": [rng.randrange(1 << params["bits"]) for _ in range(count)],
            "origin_draws": [rng.randrange(1 << 30) for _ in range(count)],
        })
    return clients


def _pastry_churn(params: dict) -> tuple:
    """The benchmark-owned churn script and availability trace (both text).

    Script times are relative to job start; churn begins when warm-up ends,
    which is also when the measured lookups begin.  The trace is generated
    for the churn window and shifted so that no host fails during warm-up.
    """
    from repro.core.churn import synthetic_availability_trace

    start = params["join_window"] + params["warmup_grace"]
    end = start + params["churn_seconds"]
    script = (f"at {start + 20:g}s crash 10%\n"
              f"from {start + 40:g}s to {end:g}s every 30s replace 5%\n"
              f"from {start + 30:g}s to {end:g}s every 60s join 4\n"
              f"at {start + 110:g}s join 10\n")
    raw = synthetic_availability_trace(
        hosts=params["trace_hosts"], duration=params["churn_seconds"],
        seed=params["env_seed"],
        mean_up=params["trace_mean_up"], mean_down=params["trace_mean_down"])
    lines = []
    for line in raw.splitlines():
        if line.startswith("#"):
            lines.append(line)
            continue
        host, up_from, up_to = line.split()
        shifted = 0.0 if float(up_from) == 0.0 else float(up_from) + start
        lines.append(f"{host} {shifted:.1f} {float(up_to) + start:.1f}")
    return script, "\n".join(lines) + "\n"


def _idle_churn(params: dict, seed: int) -> str:
    """Replace 10 % every 5 s, with seeded host fail/recover waves between."""
    rng = _rng("deploy_churn_idle", seed, "waves")
    end = params["churn_seconds"]
    lines = [f"from 5s to {end:g}s every 5s replace 10%"]
    when = 22.5
    while when + 10.0 < end:
        percent = rng.randrange(2, 6)
        lines.append(f"at {when:g}s fail {percent}%")
        lines.append(f"at {when + 10:g}s recover 100%")
        when += 25.0
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, small: bool = False) -> dict:
    """All inputs of one repetition of ``workload`` for ``seed``."""
    params = dict(PARAMS[workload])
    if small:
        params.update(SMALL[workload])
    inputs = {"workload": workload, "seed": seed,
              "sim_seed": params.get("env_seed", seed),
              "think_s": THINK_S,
              "churn_script": None, "churn_trace": None, **params}
    if workload in ("chord_steady", "pastry_churn_planetlab"):
        inputs["client_streams"] = _lookup_clients(params, workload, seed)
    if workload == "pastry_churn_planetlab":
        inputs["churn_script"], inputs["churn_trace"] = _pastry_churn(params)
    if workload == "dissemination_swarm":
        # The swarm is chaotic: a kilobyte more or less per chunk reshuffles
        # its whole event order, which samples its run-to-run variation
        # without also redrawing the topology.
        jitter = params["chunk_size_jitter"]
        inputs["chunk_size"] += _rng(workload, seed, "file").randrange(-jitter, jitter + 1)
    if workload == "deploy_churn_idle":
        inputs["churn_script"] = _idle_churn(params, seed)
        rng = _rng(workload, seed, "boot")
        inputs["boot_delays"] = [
            round(rng.uniform(params["boot_min_s"], params["boot_max_s"]), 6)
            for _ in range(params["boot_table"])]
    return inputs
