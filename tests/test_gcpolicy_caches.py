"""GC discipline and incrementally maintained job-store views.

The two perf cuts behind the flattened per-event cost curve are guarded
here: the host-interpreter GC policy (``repro.sim.gcpolicy``) must be
digest-neutral across every workload and kernel, and each job's cached
live set (``core/jobs.py``) must stay coherent with a from-scratch
recompute — and the store's host views (computed per call from
``Host.alive``) with the daemons — through instance churn, scripted host
churn and trace-driven host churn, with the runtime sanitizer able to catch
a live cache that goes stale or instance tables that disagree.  The
sort-the-world-per-pick placement planner the bucketed one replaced lives
here as its oracle (``naive_plan``).
"""

import gc
from dataclasses import replace

import pytest

from heap_kernel_reference import KERNELS, use_kernel
from repro.apps.chord import run_chord_scenario
from repro.apps.dissemination import run_dissemination_scenario
from repro.apps.gossip import run_gossip_scenario
from repro.apps.harness import RunConfig, report_digest
from repro.apps.pastry import run_pastry_scenario
from repro.core.churn import synthetic_availability_trace
from repro.core.jobs import JobSpec
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.gcpolicy import GC_MODES, GCPolicy, TUNED_THRESHOLDS
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer

RUNNERS = {
    "chord": run_chord_scenario,
    "pastry": run_pastry_scenario,
    "gossip": run_gossip_scenario,
    "dissemination": run_dissemination_scenario,
}

#: small-but-real cell every parity test runs (short mode keeps CI fast)
CELL = RunConfig(nodes=12, seed=11, duration="short")


# ------------------------------------------------------------- digest parity
@pytest.mark.parametrize("workload", sorted(RUNNERS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_digest_identical_with_gc_policy_and_caches_toggled(workload, kernel,
                                                            monkeypatch):
    # Execution mechanics must never move a digest-relevant byte, on any
    # workload: the GC policy on or off, the timer wheel or the heap oracle,
    # and — under the sanitizer — every cached control-plane view
    # cross-checked against its from-scratch recompute or trusted as is.
    runner = RUNNERS[workload]
    plain = runner(replace(CELL, gc_policy="off"))
    use_kernel(monkeypatch, kernel)
    tuned = runner(replace(CELL, gc_policy="tuned", sanitize=True))
    assert tuned["sanitizer"]["violations"] == 0
    assert report_digest(plain) == report_digest(tuned)


# --------------------------------------------------------- gc policy lifecycle
def test_gc_policy_rejects_unknown_modes():
    with pytest.raises(ValueError):
        GCPolicy("aggressive")
    with pytest.raises(ValueError):
        GCPolicy("manual")  # measured slowest of the three; gone
    assert set(GC_MODES) == {"off", "tuned"}


def test_gc_policy_engage_disengage_restores_interpreter_state():
    before_thresholds = gc.get_threshold()
    before_enabled = gc.isenabled()
    policy = GCPolicy("tuned").engage()
    assert gc.get_threshold() == TUNED_THRESHOLDS
    policy.after_deploy()
    assert gc.isenabled() == before_enabled  # ambient collection stays on
    assert policy.frozen_objects > 0
    assert policy.explicit_collects == 1  # the collect before the freeze
    policy.disengage()
    assert gc.get_threshold() == before_thresholds
    assert gc.isenabled() == before_enabled
    assert gc.get_freeze_count() == 0
    # Idempotent: a second disengage must not double-restore or collect.
    policy.disengage()
    assert policy.explicit_collects == 1
    assert gc.get_threshold() == before_thresholds


def test_gc_policy_section_reports_counters():
    policy = GCPolicy("tuned").engage()
    policy.after_deploy()
    policy.disengage()
    section = policy.section()
    assert section["mode"] == "tuned"
    assert section["explicit_collects"] == 1
    assert section["frozen_objects"] > 0
    assert section["pause_wall_s"] >= 0.0
    assert len(section["ambient_collections"]) == 3


def test_tuned_gc_section_lands_in_the_report_and_not_the_digest():
    report = run_chord_scenario(replace(CELL, gc_policy="tuned"))
    assert report["gc"]["mode"] == "tuned"
    assert report["gc"]["frozen_objects"] > 0
    assert report["phase_wall"]["deploy"] >= 0.0
    stripped = {k: v for k, v in report.items() if k not in ("gc", "phase_wall")}
    assert report_digest(stripped) == report_digest(report)


# ------------------------------------------------------------- cached views
def _world(seed=0, daemons=6, max_instances=4):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(daemons):
        controller.register_daemon(Splayd(
            sim, network, f"10.0.0.{i + 1}",
            SplaydLimits(max_instances=max_instances)))
    return sim, network, controller


def _store_views(controller):
    return (controller.alive_host_ips(), controller.failed_host_ips(),
            [d.ip for d in controller.store.alive_daemons()])


def test_cached_views_track_instance_and_host_churn():
    sim, _network, controller = _world()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=8))
    controller.start(job)
    store = controller.store
    assert [i.instance_id for i in job.live_instances()] == list(range(8))

    # Instance death through the daemon's reap path invalidates the job's
    # live view.
    victim = job.live_instances()[3]
    controller.kill_instance(victim, reason="test")
    sim.run(until=sim.now + 1.0)
    assert victim not in job.live_instances()
    assert job.live_instances() == job._recompute_live_instances()

    # Host failure shows in every store-level view.
    controller.fail_host("10.0.0.2")
    assert "10.0.0.2" in controller.failed_host_ips()
    assert "10.0.0.2" not in controller.alive_host_ips()
    assert controller.alive_host_ips() == sorted(
        d.ip for d in store.daemons.values() if d.alive)
    controller.recover_host("10.0.0.2")
    assert "10.0.0.2" in controller.alive_host_ips()
    assert controller.failed_host_ips() == []
    assert job.live_instances() == job._recompute_live_instances()


def _uncached(controller):
    """Make ``controller``'s store plan every placement from scratch: the
    world the bucketed planner is compared against."""
    store = controller.store
    store.plan_placements = lambda job, count: naive_plan(store, job, count)


def naive_plan(store, job, count):
    """The original planner: rebuild and sort every candidate per instance."""
    plan = []
    pending = {}
    for _ in range(count):
        candidates = []
        for daemon in store.alive_daemons():
            load = len(daemon.instances) + pending.get(daemon.ip, 0)
            if daemon.limits.max_instances is not None and \
                    load >= daemon.limits.max_instances:
                continue
            candidates.append((load, daemon))
        if not candidates:
            break
        # Prefer emptier daemons (balanced placement) with a random tiebreak,
        # keyed on ip so the choice is stable across runs with one seed.
        candidates.sort(key=lambda entry: (entry[0], entry[1].ip))
        emptiest = candidates[0][0]
        pool = [daemon for load, daemon in candidates if load == emptiest]
        daemon = store._rng.choice(pool)
        plan.append((daemon, job.allocate_instance_id()))
        pending[daemon.ip] = pending.get(daemon.ip, 0) + 1
    return plan


def test_cached_and_uncached_worlds_agree_through_host_churn():
    def timeline(caches):
        sim, _network, controller = _world(seed=5)
        if not caches:
            _uncached(controller)
        job = controller.submit(JobSpec(
            name="app", app_factory=lambda i: None, instances=10,
            churn_script=("at 5s crash 30%\nat 8s fail 1\n"
                          "at 12s join 2\nat 15s recover 1\n")))
        controller.start(job)
        snapshots = []
        for until in (6.0, 9.0, 13.0, 20.0):
            sim.run(until=until)
            snapshots.append((_store_views(controller),
                              [i.instance_id for i in job.live_instances()]))
        return snapshots

    assert timeline(caches=True) == timeline(caches=False)


@pytest.mark.parametrize("churn_kwargs", [
    {"churn": True},
    {"churn_trace": synthetic_availability_trace(hosts=6, duration=120.0,
                                                 seed=3)},
], ids=["script-churn", "trace-churn"])
def test_scenario_digests_identical_with_caches_under_churn(churn_kwargs,
                                                            monkeypatch):
    # End-to-end: scripted instance churn and trace-driven host churn both
    # hammer the invalidation paths; the sanitizer cross-checks every cache
    # against a recompute after each control action and must stay silent,
    # and a deployment whose store plans every placement from scratch must
    # report the same digest.
    config = RunConfig(nodes=12, seed=4, duration="short", sanitize=True,
                       **churn_kwargs)
    cached = run_chord_scenario(config)
    assert cached["sanitizer"]["violations"] == 0

    class UncachedController(Controller):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            _uncached(self)

    monkeypatch.setattr("repro.apps.harness.Controller", UncachedController)
    oracle = run_chord_scenario(config)
    assert report_digest(cached) == report_digest(oracle)


def test_sanitizer_catches_a_stale_live_instance_cache():
    sim, _network, controller = _world(seed=9)
    san = Sanitizer(sim).install()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=4))
    other = controller.submit(JobSpec(name="other",
                                      app_factory=lambda i: None, instances=1))
    controller.start(job)
    job.live_instances().pop()  # mutate the cached list in place
    # A control action on a *different* job cross-checks every job's cache
    # (acting on the corrupted job itself would legitimately invalidate it).
    controller.start(other)
    assert san.counts.get("store_cache", 0) >= 1
    assert any("live-instance cache" in v.detail for v in san.violations)


@pytest.mark.parametrize("stale_side", ["job", "daemon"])
def test_sanitizer_catches_disagreeing_instance_tables(stale_side):
    sim, _network, controller = _world(seed=9)
    san = Sanitizer(sim).install()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=4))
    other = controller.submit(JobSpec(name="other",
                                      app_factory=lambda i: None, instances=1))
    controller.start(job)
    assert san.counts == {}
    # Stale one table the way a missed hook would: the daemon's reap forgot
    # to tell the job (or the job heard of a death the daemon never reaped).
    victim = job.live_instances()[2]
    if stale_side == "job":
        victim.daemon.instances.pop(victim)
    else:
        job.record_death(victim)
    controller.start(other)  # a control action on another job cross-checks
    assert san.counts.get("store_cache", 0) >= 1
    assert any("daemons' tables" in v.detail for v in san.violations)


# ---------------------------------------------------------- bucketed planner
def test_bucketed_placement_matches_the_naive_kill_switch_path():
    # The bucketed planner must consume the RNG and pick daemons exactly
    # like the original sort-the-world-per-instance loop, including across
    # capacity exhaustion and post-churn refills.
    def placements(caches):
        sim, _network, controller = _world(seed=13, daemons=5, max_instances=3)
        if not caches:
            _uncached(controller)
        job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                        instances=9))
        controller.start(job)
        controller.fail_host("10.0.0.4")
        sim.run(until=sim.now + 1.0)
        controller.start_instances(job, 4)  # refill after the failure
        return [(p.ip, p.instance_id) for p in job.placements]

    assert placements(caches=True) == placements(caches=False)
