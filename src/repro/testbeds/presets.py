"""The four testbed presets, one :data:`TESTBEDS` table: transit-stub,
cluster, planetlab, mixed.

Paper counterpart: the evaluation environments of Section 5 — a local
cluster, the ModelNet transit-stub emulation, PlanetLab (lognormal
latencies, substrate loss, overloaded hosts) and mixed deployments spanning
a cluster and PlanetLab at once.  Each preset builds the full substrate
(latency + loss + bandwidth + host load) for a host address plan; the
harness deploys the same workloads unchanged on any of them.

All four presets share one host-count policy
(:func:`~repro.testbeds.spec.default_host_policy`), so ``--testbed
planetlab`` changes the environment, never the deployment size.
"""

from __future__ import annotations

from typing import List

from repro.net.hostload import HostLoadModel
from repro.net.latency import (
    CompositeLatency,
    ConstantLatency,
    PairwiseLatency,
    TopologyLatency,
    lognormal_sampler,
)
from repro.net.loss import LossModel
from repro.net.network import Network
from repro.net.topology import TransitStubTopology
from repro.sim.kernel import Simulator
from repro.testbeds.spec import BuiltTestbed, TestbedSpec

#: a dedicated cluster: uniform sub-millisecond one-way delay, gigabit
#: links, no loss, no host load
CLUSTER_ONE_WAY_DELAY = 0.0005
CLUSTER_LINK_BPS = 1_000_000_000.0

#: PlanetLab-style wide area: lognormal one-way delays (median 40 ms,
#: sigma 0.6 — a heavy tail), 2 % substrate loss, 10 Mbps access links and
#: load-dependent processing delay on every host
PLANETLAB_MEDIAN_ONE_WAY_MS = 40.0
PLANETLAB_SIGMA = 0.6
PLANETLAB_SUBSTRATE_LOSS = 0.02
PLANETLAB_LINK_BPS = 10_000_000.0

#: mixed deployments: cluster-to-PlanetLab pairs cross a wide-area path
MIXED_INTER_MEDIAN_ONE_WAY_MS = 60.0
MIXED_INTER_SIGMA = 0.4


def _build_transit_stub(sim: Simulator, ips: List[str], seed: int) -> BuiltTestbed:
    """The historical default: the paper's ModelNet transit-stub emulation.

    This is byte-for-byte what ``harness.deploy`` used to hard-wire —
    topology generation, host attachment, latency wiring and 10 Mbps access
    links — so reports (and their digests) are unchanged for this testbed.
    """
    topology = TransitStubTopology(seed=seed)
    attachment = topology.attach_hosts(ips)
    network = Network(sim, latency=TopologyLatency(topology, attachment), seed=seed)
    for ip in ips:
        network.bandwidth.set_capacity(ip, topology.link_bandwidth_bps,
                                       topology.link_bandwidth_bps)
    return BuiltTestbed(network=network, topology=topology,
                        description=topology.describe())


def _build_cluster(sim: Simulator, ips: List[str], seed: int) -> BuiltTestbed:
    """A dedicated local cluster: uniform low latency, lossless, fat links."""
    network = Network(sim, latency=ConstantLatency(CLUSTER_ONE_WAY_DELAY), seed=seed)
    for ip in ips:
        network.bandwidth.set_capacity(ip, CLUSTER_LINK_BPS, CLUSTER_LINK_BPS)
    return BuiltTestbed(
        network=network,
        description={
            "testbed": "cluster",
            "hosts": len(ips),
            "one_way_delay_ms": 1000.0 * CLUSTER_ONE_WAY_DELAY,
            "link_bandwidth_bps": CLUSTER_LINK_BPS,
        })


def _planetlab_models(seed: int) -> tuple:
    latency = PairwiseLatency(
        seed, lognormal_sampler(PLANETLAB_MEDIAN_ONE_WAY_MS, PLANETLAB_SIGMA))
    load = HostLoadModel(seed)
    return latency, load


def _build_planetlab(sim: Simulator, ips: List[str], seed: int) -> BuiltTestbed:
    """PlanetLab: lognormal latencies, substrate loss, overloaded hosts."""
    latency, load = _planetlab_models(seed)
    loss = LossModel(seed=seed, default_rate=PLANETLAB_SUBSTRATE_LOSS)
    network = Network(sim, latency=latency, loss=loss, seed=seed)
    for ip in ips:
        network.bandwidth.set_capacity(ip, PLANETLAB_LINK_BPS, PLANETLAB_LINK_BPS)
    load.attach(network, ips)
    return BuiltTestbed(
        network=network,
        description={
            "testbed": "planetlab",
            "hosts": len(ips),
            "latency_median_one_way_ms": PLANETLAB_MEDIAN_ONE_WAY_MS,
            "latency_sigma": PLANETLAB_SIGMA,
            "substrate_loss": PLANETLAB_SUBSTRATE_LOSS,
            "link_bandwidth_bps": PLANETLAB_LINK_BPS,
        })


def _build_mixed(sim: Simulator, ips: List[str], seed: int) -> BuiltTestbed:
    """Section 5.4's mixed deployment: a cluster half and a PlanetLab half.

    The first half of the address plan is the cluster, the second half is
    PlanetLab; intra-group delays come from each group's own model, pairs
    that cross the boundary pay a wide-area lognormal delay.  Substrate
    loss and host load apply to the PlanetLab hosts only.
    """
    split = (len(ips) + 1) // 2
    cluster_ips, planetlab_ips = ips[:split], ips[split:]
    groups = {ip: "cluster" for ip in cluster_ips}
    groups.update({ip: "planetlab" for ip in planetlab_ips})

    pl_latency, load = _planetlab_models(seed)
    latency = CompositeLatency(
        group_of=lambda ip: groups.get(ip, "planetlab"),
        intra_models={"cluster": ConstantLatency(CLUSTER_ONE_WAY_DELAY),
                      "planetlab": pl_latency},
        inter_model=PairwiseLatency(
            seed, lognormal_sampler(MIXED_INTER_MEDIAN_ONE_WAY_MS,
                                    MIXED_INTER_SIGMA),
            local_delay=0.0))
    loss = LossModel(seed=seed)
    for ip in planetlab_ips:
        loss.set_host_rate(ip, PLANETLAB_SUBSTRATE_LOSS)
    network = Network(sim, latency=latency, loss=loss, seed=seed)
    for ip in cluster_ips:
        network.bandwidth.set_capacity(ip, CLUSTER_LINK_BPS, CLUSTER_LINK_BPS)
    for ip in planetlab_ips:
        network.bandwidth.set_capacity(ip, PLANETLAB_LINK_BPS, PLANETLAB_LINK_BPS)
    load.attach(network, planetlab_ips)
    return BuiltTestbed(
        network=network, groups=groups,
        description={
            "testbed": "mixed",
            "hosts": len(ips),
            "cluster_hosts": len(cluster_ips),
            "planetlab_hosts": len(planetlab_ips),
            "inter_median_one_way_ms": MIXED_INTER_MEDIAN_ONE_WAY_MS,
        })


#: the four presets, the historical default first so CLI help lists it first
TESTBEDS = {spec.name: spec for spec in (
    TestbedSpec(name="transit-stub",
                help="ModelNet transit-stub emulation (the paper's default testbed)",
                builder=_build_transit_stub),
    TestbedSpec(name="cluster",
                help="dedicated cluster: uniform low latency, lossless gigabit links",
                builder=_build_cluster),
    TestbedSpec(name="planetlab",
                help="PlanetLab: lognormal latencies, substrate loss, overloaded hosts",
                builder=_build_planetlab),
    TestbedSpec(name="mixed",
                help="mixed deployment: one cluster half, one PlanetLab half",
                builder=_build_mixed),
)}


def get_testbed(name: str) -> TestbedSpec:
    """The preset called ``name``; a ``KeyError`` names the known ones."""
    try:
        return TESTBEDS[name]
    except KeyError:
        known = ", ".join(TESTBEDS)
        raise KeyError(f"unknown testbed {name!r} (known: {known})") from None
