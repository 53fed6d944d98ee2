"""Explicit per-pair delays, for tests that place hosts at chosen distances."""

from repro.net.latency import LatencyModel


class MatrixLatency(LatencyModel):
    """``delays[(a, b)]`` one way in both directions, ``default`` for a pair
    it does not name, ``local_delay`` within a host."""

    def __init__(self, delays, default=0.05, local_delay=0.0001):
        self.delays = dict(delays)
        self.default = default
        self.local_delay = local_delay

    def one_way(self, src_ip, dst_ip):
        if src_ip == dst_ip:
            return self.local_delay
        delay = self.delays.get((src_ip, dst_ip))
        if delay is None:
            delay = self.delays.get((dst_ip, src_ip), self.default)
        return delay
