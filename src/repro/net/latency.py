"""Latency models.

Each testbed provides a latency model mapping a pair of host IPs to a
one-way propagation delay in seconds.  Models are deterministic: for a given
simulator seed, the same pair always observes the same base delay.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple

from repro.sim.rng import substream


class LatencyModel:
    """Interface: one-way propagation delay between two hosts."""

    def one_way(self, src_ip: str, dst_ip: str) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """The same one-way delay for every pair (loopback is free)."""

    def __init__(self, delay: float = 0.001):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def one_way(self, src_ip: str, dst_ip: str) -> float:
        if src_ip == dst_ip:
            return 0.0
        return self.delay


class PairwiseLatency(LatencyModel):
    """Per-pair delays drawn lazily from a sampler and cached.

    Parameters
    ----------
    seed:
        Root seed for the deterministic substreams.
    sampler:
        Callable receiving a :class:`random.Random` and returning a one-way
        delay in seconds for a new pair.
    local_delay:
        Delay between two endpoints on the same host.
    """

    def __init__(self, seed: int, sampler: Callable[..., float], local_delay: float = 0.0001):
        self.seed = seed
        self.sampler = sampler
        self.local_delay = local_delay
        self._cache: Dict[Tuple[str, str], float] = {}

    def one_way(self, src_ip: str, dst_ip: str) -> float:
        if src_ip == dst_ip:
            return self.local_delay
        key = (src_ip, dst_ip) if src_ip <= dst_ip else (dst_ip, src_ip)
        delay = self._cache.get(key)
        if delay is None:
            rng = substream(self.seed, "pairwise-latency", key)
            delay = max(0.0, float(self.sampler(rng)))
            self._cache[key] = delay
        return delay


class TopologyLatency(LatencyModel):
    """Delays computed from shortest paths on an emulated topology (ModelNet).

    ``host_attachment`` maps a host IP to the topology node (stub) it is
    attached to; path delays between topology nodes come from a
    :class:`repro.net.topology.TransitStubTopology`.
    """

    def __init__(self, topology, host_attachment: Mapping[str, int], local_delay: float = 0.0001):
        self.topology = topology
        self.host_attachment = dict(host_attachment)
        self.local_delay = local_delay
        # The topology's per-source delay rows are indexed directly: one dict
        # probe + one list index per message.
        self._delay_rows = topology._delay_cache
        self._build_row = topology._build_delay_row

    def one_way(self, src_ip: str, dst_ip: str) -> float:
        if src_ip == dst_ip:
            return self.local_delay
        attachment = self.host_attachment
        try:
            src_node = attachment[src_ip]
            dst_node = attachment[dst_ip]
        except KeyError as exc:
            raise KeyError(f"host not attached to the topology: {exc}") from exc
        if src_node == dst_node:
            # Same emulated domain: the paper's ModelNet configuration uses a
            # 10 ms RTT between nodes of the same domain.
            return self.topology.intra_domain_delay
        row = self._delay_rows.get(src_node)
        if row is None:
            row = self._build_row(src_node)
        delay = row[dst_node]
        if delay != delay:  # NaN marks an unreachable node
            raise KeyError(f"no path between topology nodes {src_node} and {dst_node}")
        return delay


class CompositeLatency(LatencyModel):
    """Dispatch to per-group models, with a dedicated model for inter-group pairs.

    Used by mixed deployments (e.g. 500 nodes on PlanetLab and 500 on a
    ModelNet cluster in Section 5.4): intra-testbed delays come from each
    testbed's own model while inter-testbed delays use a wide-area model.
    """

    def __init__(self, group_of: Callable[[str], str], intra_models: Mapping[str, LatencyModel],
                 inter_model: LatencyModel):
        self.group_of = group_of
        self.intra_models = dict(intra_models)
        self.inter_model = inter_model

    def one_way(self, src_ip: str, dst_ip: str) -> float:
        src_group = self.group_of(src_ip)
        dst_group = self.group_of(dst_ip)
        if src_group == dst_group and src_group in self.intra_models:
            return self.intra_models[src_group].one_way(src_ip, dst_ip)
        return self.inter_model.one_way(src_ip, dst_ip)


def lognormal_sampler(median_ms: float, sigma: float) -> Callable[..., float]:
    """Build a sampler of one-way delays with log-normal spread around ``median_ms``.

    The resulting callable takes a :class:`random.Random` and returns seconds.
    Wide-area RTT distributions are well approximated by log-normals; the
    PlanetLab testbed model uses this sampler.
    """
    import math

    mu = math.log(median_ms / 1000.0)

    def _sample(rng) -> float:
        return math.exp(rng.gauss(mu, sigma))

    return _sample
