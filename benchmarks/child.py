"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition, writes the generated
inputs (plus its own spawn timestamp) to stdin and reads one JSON object
from the last line of stdout.  The child deploys through
``repro.apps.harness.deploy``, advances the simulation itself in fixed
simulated-time slices, stamps ``perf_counter`` at every slice edge, and
reports the operations' outcomes and the public counters of every layer.
With ``--profile`` the calls into the program run under ``cProfile`` and
the result carries the per-layer account; such a repetition is never mixed
into end-to-end numbers.

The program is driven only through public entry points: ``harness.deploy``,
``Process(...).start``, ``Simulator.run(until=...)``, the application
factories and ``expected_owner`` oracles, and the public stats objects.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, BENCH_DIR)

from estimate import calibrate  # noqa: E402

#: exit code of a repetition that ran but is not a valid measurement
EXIT_INVALID = 3


class Invalid(Exception):
    """The run completed but must not be reported as a measurement."""


def percentile(sorted_values: list, percent: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * percent // 100))  # ceil
    return sorted_values[int(rank) - 1]


# ---------------------------------------------------------------- workloads
class Workload:
    """What differs between workloads; the slice loop in :func:`run` is shared."""

    #: JobSpec name
    job_name = ""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        #: every runtime instance ever spawned (dead ones keep their stats)
        self.instances: list = []

    def recording(self, factory):
        def _factory(instance):
            self.instances.append(instance)
            return factory(instance)
        return _factory

    def app_factory(self):
        raise NotImplementedError

    def options(self) -> dict:
        return {}

    def start(self, deployment) -> None:
        """Start the measured operations' drivers (before any slice runs)."""
        self.deployment = deployment

    def measured_from(self) -> float:
        """Simulated time at which the first measured operation may start."""
        raise NotImplementedError

    def hard_cap(self) -> float:
        raise NotImplementedError

    def finished(self) -> bool:
        raise NotImplementedError

    def outcomes(self) -> tuple:
        """``(attempted, fail_counts, ok_latencies_s)`` after the run."""
        raise NotImplementedError


class LookupWorkload(Workload):
    """Closed-loop key lookups on a DHT, each checked against the oracle."""

    def __init__(self, inputs: dict):
        super().__init__(inputs)
        self.results: list = []  # (outcome, latency_s)
        self.drivers: list = []

    def options(self) -> dict:
        return {"bits": self.inputs["bits"]}

    def oracle(self, job, key):
        raise NotImplementedError

    #: the application's own "no route" exception
    routing_failure: type = Exception

    def measured_from(self) -> float:
        return self.deployment.measure_start

    def start(self, deployment) -> None:
        from repro.sim.process import Process

        super().start(deployment)
        for index, stream in enumerate(self.inputs["client_streams"]):
            driver = Process(deployment.sim, self._client(stream),
                             name=f"bench.client{index}")
            driver.start(delay=self.measured_from())
            self.drivers.append(driver)

    def _client(self, stream: dict):
        """One closed-loop client.

        Every non-ok operation is classified; an exception outside the
        taxonomy propagates into the driver's ``done`` future and fails the
        run.  A failed operation's latency is never recorded as ok latency.
        """
        from repro.lib.rpc import RpcError
        from repro.sim.futures import FutureCancelled

        sim, job = self.deployment.sim, self.deployment.job
        think = self.inputs["think_s"]
        for key, draw in zip(stream["keys"], stream["origin_draws"]):
            apps = [i.app for i in job.live_instances()
                    if i.app is not None and i.app.joined]
            if not apps:
                raise Invalid("no joined node to issue a lookup from")
            origin = apps[draw % len(apps)]
            started = sim.now
            try:
                owner, _hops = yield from origin.lookup(key)
            except self.routing_failure:
                outcome = "routing"
            except RpcError:
                outcome = "rpc_timeout"
            except FutureCancelled:
                # the origin was killed: its pending RPC futures are cancelled
                outcome = "origin_died"
            else:
                expected = self.oracle(job, key)
                if not origin.instance.alive:
                    outcome = "origin_died"
                elif (expected is not None and owner.ip == expected.ip
                        and owner.port == expected.port):
                    outcome = "ok"
                else:
                    outcome = "wrong_owner"
            self.results.append((outcome, sim.now - started))
            yield think

    def hard_cap(self) -> float:
        return (self.measured_from()
                + self.inputs["ops_per_client"] * (self.inputs["think_s"] + 30.0) + 300.0)

    def finished(self) -> bool:
        # Run to a fixed horizon even when the clients are done earlier: the
        # overlay's background work is most of the events, and ending at the
        # first slice edge after the last lookup made runs differ by whole
        # slices of it from seed to seed.  Slower clients extend the run.
        horizon = self.measured_from() + self.inputs["measure_seconds"]
        return (self.deployment.sim.now >= horizon
                and all(d.done.done() for d in self.drivers))

    def outcomes(self) -> tuple:
        for driver in self.drivers:
            error = driver.done.exception()
            if error is not None:
                raise error
        fails = {"routing": 0, "rpc_timeout": 0, "origin_died": 0, "wrong_owner": 0}
        ok = []
        for outcome, latency in self.results:
            if outcome == "ok":
                ok.append(latency)
            else:
                fails[outcome] += 1
        return len(self.results), fails, ok


class ChordSteady(LookupWorkload):
    job_name = "chord"

    def app_factory(self):
        from repro.apps.chord import LookupFailed, chord_factory
        self.routing_failure = LookupFailed
        return chord_factory()

    def oracle(self, job, key):
        from repro.apps.chord import expected_owner
        return expected_owner(job, key, self.inputs["bits"])


class PastryChurn(LookupWorkload):
    job_name = "pastry"

    def app_factory(self):
        from repro.apps.pastry import RouteFailed, pastry_factory
        self.routing_failure = RouteFailed
        return pastry_factory()

    def options(self) -> dict:
        return {"bits": self.inputs["bits"], "base_bits": self.inputs["base_bits"]}

    def oracle(self, job, key):
        from repro.apps.pastry import expected_owner
        return expected_owner(job, key, self.inputs["bits"])

    def measured_from(self) -> float:
        # lookups are issued while churn runs, as in the paper's churn figures
        return self.deployment.warmup_end


class DisseminationSwarm(Workload):
    """Flash crowd: one operation is one non-seed node holding the whole file."""

    job_name = "dissemination"

    def app_factory(self):
        from repro.apps.dissemination import swarm_factory
        return swarm_factory()

    def options(self) -> dict:
        return {"chunks": self.inputs["chunks"], "chunk_size": self.inputs["chunk_size"]}

    def measured_from(self) -> float:
        return 0.0

    def hard_cap(self) -> float:
        return self.inputs["horizon"]

    def _downloaders(self) -> list:
        return [i.app for i in self.instances if not i.app.is_seed]

    def finished(self) -> bool:
        return all(app.complete for app in self._downloaders())

    def outcomes(self) -> tuple:
        whole_file = set(range(self.inputs["chunks"]))
        ok = []
        for app in self._downloaders():
            if app.have != whole_file or app.completed_at is None:
                raise Invalid(f"{app.me} finished without the whole file")
            ok.append(app.completed_at - app.started_at)
        return len(ok), {}, ok


class DeployChurnIdle(Workload):
    """Control plane only: one operation is one instance start it requested."""

    job_name = "idle"

    def recording(self, factory):
        return factory  # tens of thousands of dead instances must not be kept alive

    def app_factory(self):
        from idle_app import BootLedger, idle_factory
        self.ledger = BootLedger()
        return idle_factory(self.inputs["boot_delays"], self.ledger)

    def measured_from(self) -> float:
        return 0.0

    def hard_cap(self) -> float:
        # the last replace wave's instances finish booting inside one slice
        return self.inputs["churn_seconds"] + self.inputs["slice_sim_s"]

    def finished(self) -> bool:
        return self.deployment.sim.now >= self.hard_cap()

    def outcomes(self) -> tuple:
        job = self.deployment.job
        stats = job.stats
        churn = self.deployment.controller.churn_managers[job.job_id].stats
        # every replace victim is one requested start; so is every initial instance
        attempted = self.inputs["nodes"] + churn.instances_left
        accounted = stats.instances_started - stats.instances_stopped - stats.instances_failed
        if job.live_count != accounted:
            raise Invalid(f"live instances {job.live_count} != started - stopped - failed "
                          f"= {accounted}")
        if stats.instances_started != self.ledger.created:
            raise Invalid(f"job.stats counts {stats.instances_started} starts, the "
                          f"factory built {self.ledger.created} apps")
        return attempted, {}, self.ledger.boot_latencies


WORKLOADS = {
    "chord_steady": ChordSteady,
    "pastry_churn_planetlab": PastryChurn,
    "dissemination_swarm": DisseminationSwarm,
    "deploy_churn_idle": DeployChurnIdle,
}


# ----------------------------------------------------------------- counters
def layer_counters(workload: Workload) -> dict:
    """Counters read from the program's public stats objects after the run."""
    deployment = workload.deployment
    sim, network, job = deployment.sim, deployment.network, deployment.job
    controller = deployment.controller
    status = controller.job_status(job)  # flushes the log collector
    shards = controller.control_plane_status()["shards"]
    churn = controller.churn_managers.get(job.job_id)
    rpc = {"calls_sent": 0, "retries": 0, "timeouts": 0}
    for instance in workload.instances:
        for name in rpc:
            rpc[name] += getattr(instance.rpc.stats, name)
    calls = rpc["calls_sent"] - rpc["retries"]  # calls_sent counts attempts
    return {
        "sim.kernel.events": sim.executed_events,
        "sim.kernel.cancelled": sim.cancelled_events,
        "sim.kernel.recycled": sim.recycled_events,
        "net.network.msgs_sent": network.stats.messages_sent,
        "net.network.msgs_dropped": network.stats.messages_dropped,
        "net.network.bytes_sent": network.stats.bytes_sent,
        "net.bandwidth.reallocations": network.bandwidth.reallocations,
        "net.bandwidth.flows_allocated": network.bandwidth.flows_allocated,
        "net.bandwidth.transfers_completed": network.bandwidth.completed,
        "lib.rpc.calls_sent": rpc["calls_sent"],
        "lib.rpc.retries": rpc["retries"],
        "lib.rpc.timeouts": rpc["timeouts"],
        "lib.rpc.first_try_ratio": 1.0 - rpc["retries"] / calls if calls else 1.0,
        "runtime.instances_started": sum(s["instances_started"] for s in shards),
        "runtime.instances_killed": sum(s["instances_killed"] for s in shards),
        "runtime.batches_sent": sum(s["batches_sent"] for s in shards),
        "runtime.commands_sent": sum(s["commands_sent"] for s in shards),
        "core.churn.actions_applied": churn.stats.actions_applied if churn else 0,
        "lib.logging.records": status["log_records"],
        "lib.logging.dropped": status["log_records_dropped"],
    }


# ------------------------------------------------------------------ the run
class SliceClock:
    """Times the slices and runs the calibration kernel between them.

    ``calibrations[i]`` and ``calibrations[i + 1]`` bracket ``durations[i]``;
    the time the kernel itself takes belongs to no slice.
    """

    def __init__(self, started_at: float, first_calibration: float):
        self.durations: list = []
        self.calibrations = [first_calibration]
        self.mark = started_at
        #: calibration time that fell between ``mark`` and now
        self.excluded = first_calibration

    def close_slice(self) -> None:
        self.durations.append(time.perf_counter() - self.mark - self.excluded)
        self.calibrations.append(calibrate())
        self.mark = time.perf_counter()
        self.excluded = 0.0


def run(inputs: dict, clock: SliceClock, profiler) -> dict:
    """Deploy, advance slice by slice, collect.  Returns the result dict."""

    def call(function, *args, **kwargs):
        if profiler is None:
            return function(*args, **kwargs)
        return profiler.runcall(function, *args, **kwargs)

    from repro.apps import harness

    import_s = time.perf_counter() - clock.mark - clock.excluded
    workload = WORKLOADS[inputs["workload"]](inputs)
    deployment = call(
        harness.deploy, workload.job_name,
        workload.recording(workload.app_factory()),
        nodes=inputs["nodes"], hosts=inputs["hosts"], seed=inputs["sim_seed"],
        testbed=inputs["testbed"], options=workload.options(),
        churn_script=inputs["churn_script"], churn_trace=inputs["churn_trace"],
        join_window=inputs["join_window"], warmup_grace=inputs["warmup_grace"],
        settle=inputs["settle"], ctl_shards=inputs.get("ctl_shards", 1),
        gc_policy="tuned")
    sim = deployment.sim
    workload.start(deployment)
    # slice 0 ends here: interpreter start, imports, testbed build, deploy
    clock.close_slice()
    events = [sim.executed_events]

    step = inputs["slice_sim_s"]

    def advance(until: float) -> None:
        call(sim.run, until=min(until, sim.now + step))
        clock.close_slice()
        events.append(sim.executed_events)

    measured_from = workload.measured_from()
    while sim.now < measured_from:
        advance(measured_from)
    setup_slices = len(events)
    hard_cap = workload.hard_cap()
    while not workload.finished() and sim.now < hard_cap:
        advance(hard_cap)
    if not workload.finished():
        raise Invalid(f"driver still pending at its hard cap (t={hard_cap:g}s)")

    attempted, fails, ok_latencies = workload.outcomes()
    network_stats = deployment.network.stats
    if network_stats.handler_errors:
        raise Invalid(f"{network_stats.handler_errors} message handler errors: "
                      f"{network_stats.last_errors[-3:]}")
    counters = layer_counters(workload)
    ok_latencies.sort()
    for name in ("routing", "rpc_timeout", "origin_died", "wrong_owner"):
        counters[f"fail.{name}"] = fails.get(name, 0)
    return {
        "durations": clock.durations,
        "calibrations": clock.calibrations,
        "import_s": import_s,
        "slice_events": events,
        "setup_slices": setup_slices,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # everything under "sim" is a pure function of the inputs and must be
        # identical in every repetition
        "sim": {
            "attempted": attempted,
            "ok": len(ok_latencies),
            "sim_time_s": sim.now,
            "p50_ms": 1000.0 * percentile(ok_latencies, 50) if ok_latencies else 0.0,
            "tail_ms": (1000.0 * percentile(ok_latencies, inputs["tail_percentile"])
                        if ok_latencies else 0.0),
            "counters": counters,
        },
    }


def main() -> int:
    inputs = json.load(sys.stdin)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole repetition: no migrations, and the waiting
        # parent stays off it when there is a second core
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC_DIR)
    # slice 0 starts at the parent's spawn stamp: CLOCK_MONOTONIC is shared
    clock = SliceClock(inputs["spawned_at"], calibrate())
    profiler = cProfile.Profile(builtins=False) if "--profile" in sys.argv[1:] else None
    try:
        result = run(inputs, clock, profiler)
    except Invalid as reason:
        print(json.dumps({"invalid": str(reason)}))
        return EXIT_INVALID
    if profiler is not None:
        from layers import layer_account
        result["layers"] = layer_account(profiler.getstats(), os.path.join(SRC_DIR, "repro"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    # skip interpreter finalisation: tearing a frozen multi-hundred-MB heap
    # down takes seconds that no repetition should pay for
    sys.stdout.flush()
    os._exit(code)
