"""Flow-level bandwidth model (pluggable fair sharing of access links).

Bulk data transfers (BitTorrent pieces, tree-dissemination blocks, web cache
objects) are simulated at flow level: every host has an uplink and a downlink
capacity, and the rates of all concurrent transfers are computed by a
pluggable :mod:`~repro.net.bwalloc` allocator (max-min fairness by default)
over those access links.  Rates are recomputed whenever a transfer starts,
completes or is cancelled, which is exact for this link model.

The flow/link graph is held in objects, not tables: each access link that
ever carried a flow is one persistent :class:`~repro.net.bwalloc.Link`
(capacity, live flows in ``transfer_id`` order, fill scratch) and each
:class:`Transfer` points at its two, so a recompute builds no key and looks
nothing up: one pass over the live flows (settle progress, split off what
finished or was cancelled), one epoch-marked walk over the links around what
changed, one in-place fill, one minimum over the finish times.

A flow arriving or leaving can only change the rates of flows it
(transitively) shares an access link with, so only that connected component
is re-allocated.  Every registered allocator is per-component decomposable
(no global normalisation terms), which makes those rates *bit-identical* to
a recompute over every live flow — the oracle test in
``tests/test_bwalloc.py`` asserts exactly that, step by step, against the
brute-force subclass in ``tests/bwalloc_reference.py``.
(Coalescing the recomputes of one simulated instant was measured and not
built — ``docs/BANDWIDTH.md`` has the numbers.)
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.net import bwalloc
from repro.net.bwalloc import BULK, BandwidthAllocator, Link, make_allocator
from repro.sim.futures import Future
from repro.sim.kernel import ScheduledEvent, Simulator

#: capacity used for hosts without an explicit limit (effectively unlimited)
UNLIMITED_BPS = 1e15

_BY_ID = attrgetter("transfer_id")


class Transfer:
    """One in-flight bulk transfer."""

    __slots__ = ("transfer_id", "src_ip", "dst_ip", "up", "down", "total_bytes",
                 "remaining_bytes", "rate_bps", "weight", "started_at",
                 "accrued_at", "priority", "done", "cancelled")

    def __init__(self, up: Link, down: Link, nbytes: float, started_at: float,
                 transfer_id: int = 0, priority: int = BULK):
        self.transfer_id = transfer_id
        self.src_ip = up.ip
        self.dst_ip = down.ip
        #: the two access links the flow crosses (source uplink, destination
        #: downlink) — the fixed order every allocator and the walk share
        self.up = up
        self.down = down
        self.total_bytes = float(nbytes)
        self.remaining_bytes = float(nbytes)
        self.rate_bps = 0.0
        #: the allocator's fill state (see :func:`repro.net.bwalloc._fill`)
        self.weight = 0.0
        self.started_at = started_at
        #: virtual time up to which ``remaining_bytes`` is accurate; progress
        #: between rate recomputations is extrapolated from here
        self.accrued_at = started_at
        #: bwalloc priority class (CONTROL/LOOKUP/BULK)
        self.priority = priority
        #: completes with the finish time (seconds) once all bytes are delivered.
        #: Unnamed on purpose: formatting a label per transfer was measurable
        #: on dissemination workloads, and repr() can rebuild it on demand.
        self.done: Future = Future()
        self.cancelled = False

    def bytes_transferred(self, now: Optional[float] = None) -> float:
        """Bytes delivered so far.

        ``remaining_bytes`` is only settled when rates change, so between
        recomputations the accrued figure goes stale.  Passing ``now``
        extrapolates along the current rate from the last settlement
        (clamped to the transfer size); omitting it returns the settled
        value as of the last rate recomputation.
        """
        accrued = self.total_bytes - self.remaining_bytes
        if now is None:
            return accrued
        in_flight = self.rate_bps * max(0.0, now - self.accrued_at) / 8.0
        return min(self.total_bytes, accrued + in_flight)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Transfer #{self.transfer_id} {self.src_ip}->{self.dst_ip} "
                f"{self.remaining_bytes:.0f}/{self.total_bytes:.0f}B @{self.rate_bps:.0f}bps>")


class BandwidthModel:
    """Fair sharing of per-host uplink/downlink capacities.

    The allocation strategy is pluggable (:meth:`configure`); the default is
    the historical progressive-filling max-min fairness; a change
    recomputes the connected component it touches.
    """

    def __init__(self, sim: Simulator, default_uplink_bps: Optional[float] = None,
                 default_downlink_bps: Optional[float] = None):
        self.sim = sim
        self.default_uplink_bps = default_uplink_bps or UNLIMITED_BPS
        self.default_downlink_bps = default_downlink_bps or UNLIMITED_BPS
        #: configured ``(uplink, downlink)`` per host, the one source of truth:
        #: read by :meth:`capacity` and per message by ``Network.send``,
        #: written by :meth:`set_capacity` only (which updates the link objects)
        self.capacities: Dict[str, Tuple[float, float]] = {}
        #: live transfers in ``transfer_id`` order
        self._active: List[Transfer] = []
        #: the access links that ever carried a flow, per direction and host;
        #: their ``flows`` lists are the adjacency the component walk follows,
        #: kept in lockstep with ``_active`` (the sanitizer cross-checks them)
        self._uplinks: Dict[str, Link] = {}
        self._downlinks: Dict[str, Link] = {}
        #: visit mark of the component walk and the link enumeration
        self._epoch = 0
        self._last_update = 0.0
        self._completion_event: Optional[ScheduledEvent] = None
        # per-model ids: a process-wide counter would interleave co-hosted runs
        self._transfer_ids = 0
        self._allocator: BandwidthAllocator = make_allocator("max-min")
        #: completed transfer count (for stats/tests)
        self.completed = 0
        #: bytes fully delivered by completed transfers (metrics section)
        self.bytes_completed = 0.0
        #: transfers aborted mid-flight — explicit cancel or host failure
        self.preemptions = 0
        #: per-priority-class splits of the two counters above
        self.bytes_completed_by_class: Dict[int, float] = {}
        self.preemptions_by_class: Dict[int, int] = {}
        #: recomputations run, and flows handed to the allocator in total
        #: (only the touched component counts)
        self.reallocations = 0
        self.flows_allocated = 0
        #: runtime sanitizer (repro.sim.sanitizer) or None
        self._san: Optional[object] = None

    # ---------------------------------------------------------- configuration
    def configure(self, allocator: str) -> None:
        """Select the allocation strategy.

        Safe mid-run: switching with live flows triggers one full recompute
        so every rate reflects the new policy.
        """
        self._allocator = make_allocator(allocator)
        if self._active:
            self._reallocate()

    @property
    def allocator_name(self) -> str:
        return self._allocator.name

    # ------------------------------------------------------------- capacities
    def set_capacity(self, ip: str, uplink_bps: Optional[float], downlink_bps: Optional[float]) -> None:
        """Set the access-link capacities of host ``ip`` (``None`` = unlimited).

        Safe mid-run: messages read the new value at once, flows at the next
        recompute that touches the link.
        """
        up = uplink_bps if uplink_bps and uplink_bps > 0 else UNLIMITED_BPS
        down = downlink_bps if downlink_bps and downlink_bps > 0 else UNLIMITED_BPS
        self.capacities[ip] = (up, down)
        link = self._uplinks.get(ip)
        if link is not None:
            link.capacity = up
        link = self._downlinks.get(ip)
        if link is not None:
            link.capacity = down

    def capacity(self, ip: str) -> Tuple[float, float]:
        return self.capacities.get(ip, (self.default_uplink_bps, self.default_downlink_bps))

    def busiest_links(self, count: int = 5) -> List[Dict[str, object]]:
        """The ``count`` links that carried the most completed bytes."""
        links = [link for table in (self._uplinks, self._downlinks)
                 for link in table.values() if link.bytes_carried > 0]
        links.sort(key=lambda link: (-link.bytes_carried, link.ip, link.direction))
        return [{"host": link.ip, "direction": link.direction,
                 "bytes_carried": round(link.bytes_carried),
                 "peak_flows": link.peak_flows} for link in links[:count]]

    # --------------------------------------------------------------- transfers
    def transfer(self, src_ip: str, dst_ip: str, nbytes: float,
                 priority: int = BULK) -> Transfer:
        """Start a bulk transfer of ``nbytes`` bytes; returns its :class:`Transfer`."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        up = self._uplinks.get(src_ip)
        if up is None:
            up = self._uplinks[src_ip] = Link("up", src_ip, self.capacity(src_ip)[0])
        down = self._downlinks.get(dst_ip)
        if down is None:
            down = self._downlinks[dst_ip] = Link("down", dst_ip, self.capacity(dst_ip)[1])
        self._transfer_ids += 1
        transfer = Transfer(up, down, nbytes, self.sim.now,
                            transfer_id=self._transfer_ids, priority=priority)
        if nbytes == 0:
            transfer.done.set_result(self.sim.now)
            self.completed += 1
            return transfer
        self._reallocate(transfer)
        return transfer

    def cancel_transfer(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (its future is cancelled)."""
        if not transfer.done.done():
            self._abort(transfer)
            self._reallocate()

    def cancel_host(self, ip: str) -> int:
        """Abort every transfer with ``ip`` as source or destination (host failure).

        The victims are read off the host's two links and cancelled in
        ``transfer_id`` order; one rate recomputation covers them all.
        """
        victims: List[Transfer] = []
        link = self._uplinks.get(ip)
        if link is not None:
            victims += [t for t in link.flows if not t.cancelled]
        link = self._downlinks.get(ip)
        if link is not None:
            victims += [t for t in link.flows if not t.cancelled and t.src_ip != ip]
        if victims:
            victims.sort(key=_BY_ID)
            for transfer in victims:
                self._abort(transfer)
            self._reallocate()
        return len(victims)

    def _abort(self, transfer: Transfer) -> None:
        """Mark only: the next :meth:`_reallocate` pass drops cancelled entries."""
        transfer.cancelled = True
        transfer.done.cancel()
        self.preemptions += 1
        self.preemptions_by_class[transfer.priority] = (
            self.preemptions_by_class.get(transfer.priority, 0) + 1)

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    # --------------------------------------------------------------- internals
    def _component(self, seeds: List[Transfer]) -> List[Transfer]:
        """Live transfers transitively sharing an access link with ``seeds``.

        Walks the flow/link graph outwards from the seeds, stamping each link
        with a fresh epoch as it is reached.  Every flow crosses exactly one
        uplink, so the members are the flows of the uplinks reached, each met
        once; they come back sorted by ``transfer_id`` — their order in
        ``_active`` — so the allocator sees the enumeration a full recompute
        would.
        """
        epoch = self._epoch = self._epoch + 1
        members: List[Transfer] = []
        frontier = [seeds]
        while frontier:
            for transfer in frontier.pop():
                link = transfer.up
                if link.epoch != epoch:
                    link.epoch = epoch
                    members += link.flows
                    frontier.append(link.flows)
                link = transfer.down
                if link.epoch != epoch:
                    link.epoch = epoch
                    frontier.append(link.flows)
        members.sort(key=_BY_ID)
        return members

    def _reallocate(self, added: Optional[Transfer] = None) -> None:
        """Settle progress, retire what is over, recompute rates, re-tick.

        ``added`` is a transfer starting now; transfers leaving (finished or
        cancelled) are found by the pass below.  Together they seed the
        component walk: only flows sharing a link (transitively) with a
        changed flow can see their rate move.  With no seeds at all — an
        external call that changed nothing — every live flow is redone.

        The order *leave the tables, resolve futures, allocate, schedule* is
        load-bearing: resolving a future runs its callbacks inline, and they
        re-enter :meth:`transfer` / :meth:`cancel_transfer`.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None

        # One pass: account for the bytes sent since the last rate change
        # and pick out the cancelled and the finished.
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        active = self._active
        removed: List[Transfer] = []
        if elapsed > 0:
            for transfer in active:
                remaining = transfer.remaining_bytes - transfer.rate_bps * elapsed / 8.0
                if remaining < 1e-6:
                    remaining = 0.0
                transfer.remaining_bytes = remaining
                transfer.accrued_at = now
                if remaining <= 0.0 or transfer.cancelled:
                    removed.append(transfer)
        else:
            for transfer in active:
                if transfer.remaining_bytes <= 0.0 or transfer.cancelled:
                    removed.append(transfer)
        if added is not None:
            active.append(added)
            for link in (added.up, added.down):
                flows = link.flows
                flows.append(added)
                if len(flows) > link.peak_flows:
                    link.peak_flows = len(flows)
        for transfer in removed:
            active.remove(transfer)
            transfer.up.flows.remove(transfer)
            transfer.down.flows.remove(transfer)
        for transfer in [t for t in removed if not t.cancelled]:
            nbytes = transfer.total_bytes
            transfer.up.bytes_carried += nbytes
            transfer.down.bytes_carried += nbytes
            transfer.done.set_result(now)
            self.completed += 1
            self.bytes_completed += nbytes
            self.bytes_completed_by_class[transfer.priority] = (
                self.bytes_completed_by_class.get(transfer.priority, 0.0) + nbytes)

        if not active:
            return

        if added is not None and not added.done.done():
            removed.append(added)  # the walk's seeds: what left plus what arrived
        targets = self._component(removed) if removed else active
        if targets:
            # Their links in first-appearance order, uplink before downlink:
            # the tie-break order every allocator inherits.
            epoch = self._epoch = self._epoch + 1
            links: List[Link] = []
            for transfer in targets:
                link = transfer.up
                if link.epoch != epoch:
                    link.epoch = epoch
                    links.append(link)
                link = transfer.down
                if link.epoch != epoch:
                    link.epoch = epoch
                    links.append(link)
            self._allocator.allocate(targets, links)
        self.reallocations += 1
        self.flows_allocated += len(targets)
        if self._san is not None:
            self._san.check_flow_conservation(self)
            self._san.check_flow_table(self)

        # A fill can legitimately leave a flow at rate 0 (a shared uplink
        # exhausted by a downlink-bottlenecked flow, float dust, a starved
        # priority class).  Such flows make no progress and must not drive
        # the completion tick; if every flow is stalled nothing is scheduled,
        # and the next _reallocate (capacity freed) re-ticks them.
        next_finish = inf
        for transfer in active:
            rate = transfer.rate_bps
            if rate > 0:
                finish = transfer.remaining_bytes * 8.0 / rate
                if finish < next_finish:
                    next_finish = finish
        if next_finish < inf:
            if now + next_finish == now:
                # The finish time is below the clock's resolution here: the
                # tick would fire at ``now`` again with nothing elapsed,
                # settle nothing and re-arm itself forever.  As far as the
                # clock can tell those flows are done — retire them now.
                for transfer in active:
                    rate = transfer.rate_bps
                    if rate > 0 and now + transfer.remaining_bytes * 8.0 / rate == now:
                        transfer.remaining_bytes = 0.0
                return self._reallocate()
            self._completion_event = self.sim.schedule(next_finish, self._on_completion_tick)

    def _on_completion_tick(self) -> None:
        self._completion_event = None
        self._reallocate()

    def class_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-priority-class completed bytes and preemptions (for metrics)."""
        stats: Dict[str, Dict[str, float]] = {}
        for value, name in bwalloc.PRIORITY_NAMES.items():
            bytes_done = self.bytes_completed_by_class.get(value, 0.0)
            preempted = self.preemptions_by_class.get(value, 0)
            if bytes_done or preempted:
                stats[name] = {"bytes_completed": bytes_done,
                               "preemptions": preempted}
        return stats
