"""Packet-loss models.

The SPLAY communication libraries "can be instructed to drop a given
proportion of the packets (specified upon deployment): this can be used to
simulate lossy links and study their impact on an application".  The network
also applies a (usually small) substrate loss rate representing the testbed
itself, e.g. overloaded PlanetLab hosts dropping connections.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.rng import substream


class LossModel:
    """Bernoulli loss, globally and per host pair.

    Parameters
    ----------
    seed:
        Seed for the deterministic loss draws.
    default_rate:
        Probability in ``[0, 1]`` that any message is dropped.
    """

    def __init__(self, seed: int = 0, default_rate: float = 0.0):
        _validate_rate(default_rate)
        self.default_rate = default_rate
        self._pair_rates: Dict[Tuple[str, str], float] = {}
        self._host_rates: Dict[str, float] = {}
        self._rng = substream(seed, "loss-model")
        #: number of messages evaluated so far (the drops are the network's
        #: ``NetworkStats.drops_loss``)
        self.evaluated = 0

    def set_pair_rate(self, src_ip: str, dst_ip: str, rate: float) -> None:
        """Set the drop rate for messages from ``src_ip`` to ``dst_ip``."""
        _validate_rate(rate)
        self._pair_rates[(src_ip, dst_ip)] = rate

    def set_host_rate(self, ip: str, rate: float) -> None:
        """Set the drop rate for all messages to or from ``ip``."""
        _validate_rate(rate)
        self._host_rates[ip] = rate

    def rate_for(self, src_ip: str, dst_ip: str) -> float:
        """Effective drop probability for the pair (max of applicable rates)."""
        # Most deployments never install per-pair or per-host rates; skip the
        # three dict probes on every message in that case.
        if not self._pair_rates and not self._host_rates:
            return self.default_rate
        rate = self.default_rate
        rate = max(rate, self._pair_rates.get((src_ip, dst_ip), 0.0))
        rate = max(rate, self._host_rates.get(src_ip, 0.0), self._host_rates.get(dst_ip, 0.0))
        return rate

    def should_drop(self, src_ip: str, dst_ip: str) -> bool:
        """Decide (randomly but reproducibly) whether to drop one message."""
        self.evaluated += 1
        if not self._pair_rates and not self._host_rates:
            rate = self.default_rate
        else:
            rate = self.rate_for(src_ip, dst_ip)
        if rate <= 0.0:
            return False
        return rate >= 1.0 or self._rng.random() < rate


def _validate_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"loss rate must be within [0, 1], got {rate}")
