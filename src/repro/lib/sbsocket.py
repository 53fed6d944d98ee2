"""The restricted socket layer (``sb_socket``).

The wrapped socket library "includes a security layer that can be controlled
by the local administrator ... and further restricted remotely by the
controller.  This secure layer allows us to limit: (1) the total bandwidth
available for SPLAY applications; (2) the maximum number of sockets used by
an application and (3) the addresses that an application can or cannot
connect to."  The library is also the place where an artificial drop rate can
be injected to emulate lossy links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.core.blacklist import Blacklist
from repro.lib.serializer import estimate_size
from repro.net.address import Address, NodeRef
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.events_api import AppContext
from repro.sim.futures import Future
from repro.sim.rng import substream


class SocketRestrictionError(Exception):
    """Raised when an operation would violate the socket policy."""


@dataclass(slots=True)
class SocketPolicy:
    """Restrictions applied to one application instance's networking.

    ``max_total_bytes`` caps the cumulative traffic (the paper limits the
    *total* bandwidth available to applications and kills I/O beyond it);
    ``max_sockets`` caps concurrently open sockets/listeners; ``drop_rate``
    emulates lossy links; ``blacklist`` holds forbidden addresses or masks.
    """

    max_total_bytes: Optional[int] = None
    max_sockets: Optional[int] = None
    drop_rate: float = 0.0
    blacklist: Optional[Blacklist] = None

    def merged_with(self, stricter: "SocketPolicy") -> "SocketPolicy":
        """Combine with controller-imposed restrictions (stricter wins)."""
        if self.blacklist is None:
            blacklist = stricter.blacklist
        elif stricter.blacklist is None:
            blacklist = self.blacklist
        else:
            blacklist = self.blacklist.merged_with(stricter.blacklist)
        return SocketPolicy(
            max_total_bytes=stricter_limit(self.max_total_bytes, stricter.max_total_bytes),
            max_sockets=stricter_limit(self.max_sockets, stricter.max_sockets),
            drop_rate=max(self.drop_rate, stricter.drop_rate),
            blacklist=blacklist,
        )


def stricter_limit(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The smaller of two limits, where None is no limit."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(slots=True)
class SocketStats:
    """Per-instance traffic accounting, read by the sandbox and the daemon."""

    bytes_sent: int = 0
    messages_sent: int = 0
    messages_refused: int = 0
    messages_dropped_locally: int = 0


class RestrictedSocket:
    """The application-facing socket API.

    One instance is bound to one application endpoint.  All higher-level
    communication (the RPC library, application message passing, bulk
    transfers) goes through it, so the policy is enforced uniformly.
    """

    __slots__ = ("network", "context", "local", "policy", "stats", "_handlers",
                 "_listening", "_open_sockets", "_seed", "_rng", "_closed")

    def __init__(self, network: Network, context: AppContext, local: Address,
                 policy: Optional[SocketPolicy] = None, seed: int = 0):
        self.network = network
        self.context = context
        self.local = local
        self.policy = policy or SocketPolicy()
        self.stats = SocketStats()
        self._handlers: List[Callable[[Message], Any]] = []
        self._listening = False
        self._open_sockets = 0
        self._seed = seed
        # The drop-rate RNG is derived on first use: a Mersenne Twister state
        # is ~2.5 KB, and most deployments never inject local loss.  The
        # substream depends only on (seed, local), so laziness cannot change
        # any draw.
        self._rng = None
        self._closed = False

    # ------------------------------------------------------------- listening
    def listen(self, handler: Callable[[Message], Any]) -> None:
        """Register ``handler`` for incoming messages on the local endpoint."""
        self._check_closed()
        self._handlers.append(handler)
        if not self._listening:
            self._charge_socket()
            self.network.listen(self.local, self._dispatch, context=self.context)
            self._listening = True

    def _dispatch(self, message: Message) -> None:
        handlers = self._handlers
        if len(handlers) == 1:
            # Nearly every socket has exactly one handler (the RPC service);
            # skip the defensive copy that guards mutation during iteration.
            handlers[0](message)
            return
        for handler in list(handlers):
            handler(message)

    # ---------------------------------------------------------------- sending
    def send(self, dst: "Address | NodeRef | dict | str", payload: Any,
             size: Optional[int] = None) -> None:
        """Send one datagram to ``dst``: fire and forget, nothing is returned.

        Raises :class:`SocketRestrictionError` when the socket is closed or
        the policy refuses the message (blacklist, byte budget).  A message
        let through may still be lost without the sender being told — to the
        local ``drop_rate`` (``stats.messages_dropped_locally``) or in the
        network (``Network.stats``).  ``size`` is the wire size when the
        caller knows it (the RPC layer does), else estimated from ``payload``;
        a negative ``size`` raises ``ValueError`` before anything is charged.
        """
        # One frame per message: a helper runs only for a restriction in force.
        if self._closed or not self.context.alive:
            raise SocketRestrictionError("socket is closed")
        if type(dst) is NodeRef:
            dst = dst.address
        elif type(dst) is not Address:
            dst = _coerce_address(dst)
        if size is None:
            size = estimate_size(payload)
        elif size < 0:
            raise ValueError("message size must be non-negative")
        policy = self.policy
        if policy.blacklist is not None:
            self._enforce_destination(dst)
        if policy.max_total_bytes is not None:
            self._enforce_budget(size)
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        if policy.drop_rate > 0 and self._drop_rng().random() < policy.drop_rate:
            # Locally injected loss (lossy-link emulation requested at deploy time).
            stats.messages_dropped_locally += 1
            return
        self.network.send(self.local, dst, payload, size)

    def transfer(self, dst: "Address | NodeRef | dict | str",
                 nbytes: float) -> Future:
        """Bulk transfer (charged against the traffic budget).

        The future completes when the last byte leaves this host's uplink,
        which is also when the socket slot is released; its value is the
        time that byte arrives (see :meth:`Network.transfer`).  A negative
        ``nbytes`` raises ``ValueError`` before anything is charged: no
        socket slot, no budget, no network counter.
        """
        self._check_closed()
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        dst_address = _coerce_address(dst)
        self._enforce_destination(dst_address)
        self._enforce_budget(int(nbytes))
        self._charge_socket()
        self.stats.bytes_sent += int(nbytes)
        future = self.network.transfer(self.local, dst_address, nbytes)
        future.add_done_callback(lambda _f: self._release_socket())
        return future

    def _drop_rng(self):
        rng = self._rng
        if rng is None:
            rng = self._rng = substream(self._seed, "sbsocket", str(self.local))
        return rng

    # ----------------------------------------------------------- enforcement
    def _enforce_destination(self, dst: Address) -> None:
        blacklist = self.policy.blacklist
        if blacklist is not None and blacklist.is_forbidden(dst.ip):
            self.stats.messages_refused += 1
            raise SocketRestrictionError(f"destination is blacklisted: {dst.ip}")

    def _enforce_budget(self, size: int) -> None:
        limit = self.policy.max_total_bytes
        if limit is not None and self.stats.bytes_sent + size > limit:
            self.stats.messages_refused += 1
            raise SocketRestrictionError(
                f"network budget exceeded: {self.stats.bytes_sent + size} > {limit} bytes")

    def _charge_socket(self) -> None:
        limit = self.policy.max_sockets
        if limit is not None and self._open_sockets + 1 > limit:
            raise SocketRestrictionError(f"too many open sockets (limit {limit})")
        self._open_sockets += 1

    def _release_socket(self) -> None:
        self._open_sockets = max(0, self._open_sockets - 1)

    def _check_closed(self) -> None:
        if self._closed or not self.context.alive:
            raise SocketRestrictionError("socket is closed")

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._listening:
            self.network.unlisten(self.local)
            self._listening = False
        self._handlers.clear()


def _coerce_address(value: "Address | NodeRef | dict | str") -> Address:
    if type(value) is NodeRef:
        return value.address  # memoized; the dominant case (RPC destinations)
    if isinstance(value, Address):
        return value
    return NodeRef.coerce(value).address
