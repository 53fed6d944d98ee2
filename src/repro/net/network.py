"""Message-level network connecting hosts, daemons and applications.

The :class:`Network` owns the host registry, the latency/loss/bandwidth
models and the endpoint (listener) table.  Small control messages (RPCs,
protocol messages) are delivered individually with a per-message delay; bulk
payloads go through the flow-level :class:`~repro.net.bandwidth.BandwidthModel`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.net.address import Address
from repro.net.bandwidth import BandwidthModel, UNLIMITED_BPS
from repro.net.bwalloc import BULK, LOOKUP
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.loss import LossModel
from repro.net.message import Message
from repro.sim.events_api import AppContext
from repro.sim.futures import Future
from repro.sim.kernel import Simulator
from repro.sim.rng import substream


@dataclass(slots=True)
class NetworkStats:
    """Counters maintained by the network (exposed to benchmarks and tests)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    handler_errors: int = 0
    transfers_started: int = 0
    # Drop-cause split (sums to messages_dropped): dead endpoint hosts,
    # loss-model drops, and missing/dead destination listeners.  Surfaced in
    # the digest-excluded ``metrics`` report section only.
    drops_dead_host: int = 0
    drops_loss: int = 0
    drops_no_listener: int = 0
    #: bytes offered per bwalloc priority class (messages and transfers);
    #: digest-excluded ``metrics`` report section only
    bytes_by_class: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    last_errors: List[str] = field(default_factory=list)

    def record_error(self, error: str, cap: int = 20) -> None:
        self.handler_errors += 1
        self.last_errors.append(error)
        if len(self.last_errors) > cap:
            del self.last_errors[0]


@dataclass(slots=True)
class Listener:
    """A registered message handler for one endpoint."""

    address: Address
    handler: Callable[[Message], Any]
    context: Optional[AppContext] = None

    @property
    def alive(self) -> bool:
        return self.context is None or self.context.alive


class Network:
    """The simulated network substrate.

    Parameters
    ----------
    sim:
        Simulation kernel providing the clock.
    latency:
        Latency model; defaults to a 1 ms constant one-way delay.
    loss:
        Loss model; defaults to lossless.
    bandwidth:
        Flow-level bandwidth model used for :meth:`transfer`; created lazily
        with unlimited capacities if not provided.
    jitter:
        Fractional per-message jitter (e.g. ``0.1`` adds up to 10 % of the
        base delay, uniformly).
    strict:
        If ``True``, exceptions raised by message handlers propagate (useful
        in unit tests); otherwise they are recorded in :attr:`stats`.
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 loss: Optional[LossModel] = None, bandwidth: Optional[BandwidthModel] = None,
                 jitter: float = 0.0, strict: bool = False, seed: Optional[int] = None):
        self.sim = sim
        self.latency = latency or ConstantLatency(0.001)
        self.loss = loss or LossModel(seed=seed if seed is not None else sim.seed)
        self.bandwidth = bandwidth or BandwidthModel(sim)
        self.jitter = jitter
        self.strict = strict
        self.hosts: Dict[str, Any] = {}
        self.stats = NetworkStats()
        # Keyed by (ip, port) tuples rather than Address objects: tuple
        # hashing/equality run in C (the IPs are interned strings, so probes
        # are pointer compares), and this dict sits on the per-message path.
        self._listeners: Dict[tuple, Listener] = {}
        self._rng = substream(seed if seed is not None else sim.seed, "network-jitter")
        # processing-delay hooks resolved once per host at registration time —
        # a hasattr() probe per message was measurable on the send hot path
        self._proc_delay: Dict[str, Any] = {}
        #: runtime sanitizer (repro.sim.sanitizer) or None
        self._san: Optional[Any] = None

    # ----------------------------------------------------------------- hosts
    def add_host(self, host: Any) -> None:
        """Register a host object (must expose ``ip`` and ``alive``).

        A ``processing_delay(size) -> seconds`` hook is picked up here; to
        attach one *after* registration, use :meth:`set_processing_delay`
        (the hook is resolved once, not probed per message).
        """
        self.hosts[host.ip] = host
        hook = getattr(host, "processing_delay", None)
        if hook is not None:
            self._proc_delay[host.ip] = hook

    def set_processing_delay(self, ip: str, hook: Any) -> None:
        """Attach (or clear, with ``None``) a host-load delay hook for ``ip``."""
        if hook is None:
            self._proc_delay.pop(ip, None)
        else:
            self._proc_delay[ip] = hook

    def remove_host(self, ip: str) -> None:
        self.hosts.pop(ip, None)
        self._proc_delay.pop(ip, None)
        self.bandwidth.cancel_host(ip)
        for key in [k for k in self._listeners if k[0] == ip]:
            del self._listeners[key]
        if self._san is not None:
            self._san.check_listener_table(self)

    def host(self, ip: str) -> Any:
        return self.hosts[ip]

    def has_host(self, ip: str) -> bool:
        return ip in self.hosts

    def host_alive(self, ip: str) -> bool:
        host = self.hosts.get(ip)
        return bool(host is not None and getattr(host, "alive", True))

    # ------------------------------------------------------------- listeners
    def listen(self, address: Address, handler: Callable[[Message], Any],
               context: Optional[AppContext] = None) -> Listener:
        """Register ``handler`` for ``address``.  A listener whose ``context``
        died receives nothing and may be replaced; its owner's teardown takes
        it out of the table (:meth:`unlisten`, which a closing socket calls)."""
        key = (address.ip, address.port)
        existing = self._listeners.get(key)
        if existing is not None and existing.alive:
            raise ValueError(f"address already in use: {address}")
        listener = Listener(address=address, handler=handler, context=context)
        self._listeners[key] = listener
        return listener

    def unlisten(self, address: Address) -> None:
        self._listeners.pop((address.ip, address.port), None)

    def listener(self, address: Address) -> Optional[Listener]:
        return self._listeners.get((address.ip, address.port))

    def is_listening(self, address: Address) -> bool:
        listener = self._listeners.get((address.ip, address.port))
        return listener is not None and listener.alive

    # ------------------------------------------------------------------ send
    def send(self, src: Address, dst: Address, payload: Any, size: int,
             kind: str = "data", priority: int = LOOKUP) -> None:
        """Send one datagram: fire and forget, nothing is returned.

        Delivery requires the source and destination hosts to be alive and a
        live listener on the destination endpoint, and the loss model may
        drop the message on the way.  The sender is never told: a drop shows
        only in :attr:`stats` (``messages_dropped`` and its ``drops_*``
        split), a delivery in ``messages_delivered`` and at the receiving
        listener.  Reliability (timeouts, retries) is the RPC layer's job.
        """
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        stats.bytes_by_class[priority] += size

        # Aliveness probes are inlined (self.host_alive is a method call per
        # probe, and this path runs once per simulated message).  Loopback is
        # no special case: it probes its one host twice and still gets its
        # loss draw, so seeded runs do not depend on the path a message takes.
        hosts = self.hosts
        src_ip = src.ip
        dst_ip = dst.ip
        src_host = hosts.get(src_ip)
        dst_host = hosts.get(dst_ip)
        if (src_host is None or dst_host is None
                or not getattr(src_host, "alive", True)
                or not getattr(dst_host, "alive", True)):
            stats.messages_dropped += 1
            stats.drops_dead_host += 1
            return
        if self.loss.should_drop(src_ip, dst_ip):
            stats.messages_dropped += 1
            stats.drops_loss += 1
            return

        delay = self.latency.one_way(src_ip, dst_ip)
        if self.jitter:
            delay += delay * self._rng.uniform(0.0, self.jitter)
        # Transmission time over the narrower of the two access links.  Read
        # per message on purpose — capacities, the latency model and the
        # processing-delay hooks are all mutable mid-run, so no route cache.
        bandwidth = self.bandwidth
        capacities = bandwidth.capacities
        entry = capacities.get(src_ip)
        up = entry[0] if entry is not None else bandwidth.default_uplink_bps
        entry = capacities.get(dst_ip)
        down = entry[1] if entry is not None else bandwidth.default_downlink_bps
        narrow = up if up < down else down
        if narrow < UNLIMITED_BPS and size > 0:
            delay += size * 8.0 / narrow
        # Receiver/sender-side processing delay (host load, swap penalty, ...).
        proc_delay = self._proc_delay
        if proc_delay:
            dst_hook = proc_delay.get(dst_ip)
            if dst_hook is not None:
                delay += max(0.0, dst_hook(size))
            src_hook = proc_delay.get(src_ip)
            if src_hook is not None:
                delay += max(0.0, src_hook(size))
        sim = self.sim
        sim.schedule(delay, self._deliver,
                     Message(src, dst, payload, size, kind, sim._now, priority))

    def _deliver(self, message: Message) -> None:
        dst = message.dst
        dst_ip = dst.ip
        stats = self.stats
        host = self.hosts.get(dst_ip)
        if host is None or not getattr(host, "alive", True):
            stats.messages_dropped += 1
            stats.drops_dead_host += 1
            return
        listener = self._listeners.get((dst_ip, dst.port))
        context = None if listener is None else listener.context
        if listener is None or (context is not None and not context.alive):
            stats.messages_dropped += 1
            stats.drops_no_listener += 1
            return
        try:
            listener.handler(message)
        except Exception as exc:  # noqa: BLE001 - handler bugs must not kill the run
            if self.strict:
                raise
            stats.record_error(f"{dst}: {exc!r}")
            return
        stats.messages_delivered += 1

    # -------------------------------------------------------------- transfers
    def transfer(self, src: Address, dst: Address, nbytes: float,
                 priority: int = BULK) -> Future:
        """Bulk transfer through the flow-level bandwidth model.

        The returned future completes with the finish time when the last byte
        arrives, or is cancelled if either host fails mid-transfer.  The
        ``priority`` class is what priority-aware allocators schedule by.
        """
        result = Future()  # unnamed: transfers are hot in dissemination runs
        if not self.host_alive(src.ip) or not self.host_alive(dst.ip):
            result.cancel()
            return result
        stats = self.stats
        stats.transfers_started += 1
        stats.bytes_by_class[priority] += int(nbytes)
        propagation = self.latency.one_way(src.ip, dst.ip)
        transfer = self.bandwidth.transfer(src.ip, dst.ip, nbytes,
                                           priority=priority)

        def _complete(fut: Future) -> None:
            if fut.cancelled():
                result.cancel()
                return
            # The last byte still needs one propagation delay to arrive.
            self.sim.schedule(propagation, result.set_result, self.sim.now + propagation)

        transfer.done.add_done_callback(_complete)
        return result

    # --------------------------------------------------------------- queries
    def one_way_delay(self, src_ip: str, dst_ip: str) -> float:
        """Base one-way delay between two hosts (no jitter, no processing)."""
        return self.latency.one_way(src_ip, dst_ip)

    def rtt(self, src_ip: str, dst_ip: str) -> float:
        return self.latency.rtt(src_ip, dst_ip)
