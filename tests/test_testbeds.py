"""Testbeds: preset registry, substrate properties, digest compatibility."""

from dataclasses import replace

import pytest

from repro.apps import harness
from repro.apps.chord import run_chord_scenario
from repro.apps.gossip import run_gossip_scenario
from repro.apps.harness import RunConfig
from repro.net.hostload import HostLoadModel
from repro.sim.kernel import Simulator
from repro import testbeds
from repro.testbeds import (
    BuiltTestbed,
    TestbedSpec,
    UnknownTestbedError,
    get_testbed,
    register,
)
from repro.testbeds.presets import (
    CLUSTER_ONE_WAY_DELAY,
    PLANETLAB_LINK_BPS,
    PLANETLAB_SUBSTRATE_LOSS,
)

#: report digests captured on the commit *before* the testbeds refactor —
#: the default transit-stub testbed must keep producing exactly these
PRE_TESTBEDS_DIGESTS = {
    "chord-stable": "5b0311d6debf1be8",
    "gossip-stable": "f968ef216e917b76",
    "chord-churn": "a4225db7940032d4",
}


def _build(name, hosts=8, seed=0):
    sim = Simulator(seed)
    ips = harness.host_ips(hosts)
    return sim, ips, get_testbed(name).build(sim, ips, seed)


# ------------------------------------------------------------------- registry
def test_builtin_presets_are_registered_with_the_default_first():
    names = testbeds.testbed_names()
    assert names[0] == "transit-stub"
    assert set(names) >= {"transit-stub", "cluster", "planetlab", "mixed"}


def test_unknown_testbed_raises_with_known_names():
    with pytest.raises(UnknownTestbedError, match="transit-stub"):
        get_testbed("modelnet-xl")


def test_registering_a_conflicting_name_is_rejected():
    def _builder(sim, ips, seed):  # pragma: no cover - never built
        return BuiltTestbed(name="cluster", network=None)

    with pytest.raises(ValueError, match="already registered"):
        register(TestbedSpec(name="cluster", help="imposter", builder=_builder))


def test_every_preset_shares_the_default_host_policy():
    for name in testbeds.testbed_names():
        assert get_testbed(name).default_hosts(50) == 25
        assert get_testbed(name).default_hosts(4) == 8


# -------------------------------------------------------------------- presets
def test_cluster_is_uniform_and_lossless():
    _sim, ips, built = _build("cluster")
    delays = {built.network.one_way_delay(a, b)
              for a in ips for b in ips if a != b}
    assert delays == {CLUSTER_ONE_WAY_DELAY}
    assert built.network.loss.rate_for(ips[0], ips[1]) == 0.0
    assert built.topology is None
    assert built.description["testbed"] == "cluster"


def test_transit_stub_preset_matches_the_historical_substrate():
    _sim, ips, built = _build("transit-stub")
    assert built.topology is not None
    # the report's topology entry is exactly the topology description
    assert built.description == built.topology.describe()
    up, down = built.network.bandwidth.capacity(ips[0])
    assert up == down == built.topology.link_bandwidth_bps


def test_planetlab_latencies_are_heavy_tailed_and_deterministic():
    _sim, ips, built = _build("planetlab")
    pairs = [(ips[i], ips[j]) for i in range(4) for j in range(i + 1, 4)]
    delays = [built.network.one_way_delay(a, b) for a, b in pairs]
    assert all(d > 0 for d in delays)
    assert len(set(delays)) > 1  # pairwise, not uniform
    # same seed, fresh build -> same delays
    _sim2, ips2, built2 = _build("planetlab")
    assert [built2.network.one_way_delay(a, b) for a, b in pairs] == delays


def test_planetlab_has_substrate_loss_and_host_load():
    sim, ips, built = _build("planetlab")
    assert built.network.loss.rate_for(ips[0], ips[1]) == PLANETLAB_SUBSTRATE_LOSS
    up, _down = built.network.bandwidth.capacity(ips[0])
    assert up == PLANETLAB_LINK_BPS
    # every host pays a load-dependent processing delay on message delivery
    network = built.network
    base = network.latency.one_way(ips[0], ips[1])
    from repro.net.address import Address
    from repro.runtime.splayd import Host
    for ip in ips[:2]:
        network.add_host(Host(ip))
    network.loss.default_rate = 0.0  # this message must arrive
    arrivals = []
    network.listen(Address(ips[1], 2), lambda message: arrivals.append(sim.now))
    network.send(Address(ips[0], 1), Address(ips[1], 2), "x", 100)
    sim.run()
    assert len(arrivals) == 1 and arrivals[0] > base


def test_mixed_splits_hosts_and_keeps_loss_on_the_planetlab_half():
    _sim, ips, built = _build("mixed", hosts=8)
    cluster = [ip for ip in ips if built.groups[ip] == "cluster"]
    planetlab = [ip for ip in ips if built.groups[ip] == "planetlab"]
    assert len(cluster) == len(planetlab) == 4
    # intra-cluster pairs behave like the cluster preset
    assert built.network.one_way_delay(cluster[0], cluster[1]) == CLUSTER_ONE_WAY_DELAY
    assert built.network.loss.rate_for(cluster[0], cluster[1]) == 0.0
    # anything touching the PlanetLab half sees substrate loss
    assert built.network.loss.rate_for(cluster[0], planetlab[0]) == \
        PLANETLAB_SUBSTRATE_LOSS
    assert built.network.loss.rate_for(planetlab[0], planetlab[1]) == \
        PLANETLAB_SUBSTRATE_LOSS
    # cross-group delay is wide-area, not the cluster constant
    assert built.network.one_way_delay(cluster[0], planetlab[0]) != \
        CLUSTER_ONE_WAY_DELAY


# ------------------------------------------------------------------ host load
def test_host_load_model_is_deterministic_and_size_monotonic():
    first = HostLoadModel(seed=5)
    second = HostLoadModel(seed=5)
    assert first.load_of("10.0.0.1") == second.load_of("10.0.0.1")
    assert first.load_of("10.0.0.1") >= 1.0
    assert first.delay("10.0.0.1", 10_000) > first.delay("10.0.0.1", 100)
    hook = first.hook_for("10.0.0.2")
    assert hook(500) == pytest.approx(first.delay("10.0.0.2", 500))


def test_host_load_model_has_a_heavy_tail():
    model = HostLoadModel(seed=1, heavy_fraction=0.25, heavy_multiplier=8.0)
    loads = [model.load_of(f"10.0.{i // 256}.{i % 256}") for i in range(200)]
    heavy = [load for load in loads if load > 3.0]
    assert heavy  # some hosts are overloaded
    assert len(heavy) < len(loads) / 2  # ... but most are not


# ------------------------------------------------------- digest compatibility
def test_default_testbed_report_digest_is_unchanged_from_pre_testbeds():
    report = run_chord_scenario(
        RunConfig(nodes=10, hosts=5, seed=1, join_window=20.0, settle=40.0),
        lookups=30)
    assert report["testbed"] == "transit-stub"
    assert harness.report_digest(report) == PRE_TESTBEDS_DIGESTS["chord-stable"]

    report = run_gossip_scenario(
        RunConfig(nodes=12, hosts=6, seed=1, join_window=15.0, settle=30.0),
        broadcasts=20)
    assert harness.report_digest(report) == PRE_TESTBEDS_DIGESTS["gossip-stable"]


@pytest.mark.slow
def test_default_testbed_digest_is_unchanged_under_flagship_churn():
    report = run_chord_scenario(
        RunConfig(nodes=12, hosts=8, seed=11, churn=True, join_window=30.0,
                  settle=40.0), lookups=15)
    assert harness.report_digest(report) == PRE_TESTBEDS_DIGESTS["chord-churn"]


def test_testbed_name_is_recorded_but_excluded_from_the_digest():
    assert "testbed" in harness.DIGEST_EXCLUDED_KEYS
    report = {"scenario": "x", "testbed": "planetlab", "measured": {"a": 1}}
    renamed = dict(report, testbed="cluster")
    assert harness.report_digest(report) == harness.report_digest(renamed)


def test_changing_the_testbed_changes_workload_results():
    config = RunConfig(nodes=10, hosts=5, seed=1, duration="short")
    default = run_chord_scenario(config, lookups=12)
    cluster = run_chord_scenario(replace(config, testbed="cluster"), lookups=12)
    assert default["measured"] != cluster["measured"]
    assert harness.report_digest(default) != harness.report_digest(cluster)
    # the cluster's uniform sub-millisecond RTTs show up in the latencies
    assert cluster["measured"]["latency_p50_ms"] < \
        default["measured"]["latency_p50_ms"]


def test_planetlab_scenario_runs_end_to_end_with_flagship_churn():
    report = run_gossip_scenario(
        RunConfig(nodes=12, hosts=6, seed=1, churn=True, duration="short",
                  testbed="planetlab"), broadcasts=12)
    assert report["testbed"] == "planetlab"
    assert report["topology"]["testbed"] == "planetlab"
    assert report["measured"]["success_rate"] >= 0.9
    # the substrate dropped traffic (lossy testbed), yet the workload held up
    assert report["network"]["messages_dropped"] > 0


def test_mixed_scenario_runs_end_to_end_with_flagship_churn():
    report = run_chord_scenario(
        RunConfig(nodes=12, hosts=6, seed=1, churn=True, duration="short",
                  testbed="mixed"), lookups=12)
    assert report["testbed"] == "mixed"
    assert report["topology"]["cluster_hosts"] == 3
    assert report["topology"]["planetlab_hosts"] == 3
    assert report["measured"]["success_rate"] >= 0.9
