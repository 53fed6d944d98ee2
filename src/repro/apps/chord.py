"""Chord on the SPLAY runtime (the paper's Listing 3, grown fault-tolerant).

"We have implemented Chord for SPLAY ... the implementation is remarkably
compact and close to the pseudo-code."  This module keeps that structure —
``join``, ``stabilize``, ``notify``, ``fix_fingers`` as coroutines over the
RPC library — and adds the successor-list fault tolerance the paper's churn
experiments rely on.  ``stabilize`` is the one fixed-period task: it also
reads the fingers its successor list covers and checks a silent
predecessor.  ``fix_fingers`` looks up only the fingers beyond the list's
reach, sets each to the nearest by round trip of a few nodes of its interval
and then only checks that it still answers, waiting longer while nothing
changes.

Every remote interaction goes through ``instance.rpc`` (and therefore the
restricted socket): the application never touches the network object.
Lookups are *forwarded*: each node runs ``step`` on the walk and passes it
to the next hop, which acknowledges it, so a hop costs one one-way delay and
the node that held the walk routes around a next hop that died; the owner
runs ``claim`` and answers the querying node directly.  The walk, its
iterative fallback and the join retry loop are
:class:`repro.apps.harness.RoutingNode`'s, shared with Pastry; what is here
is the protocol: handlers, maintenance, routing state.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Tuple

from repro.apps import harness
from repro.lib.ring import between, ring_add, ring_distance
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef

#: the successor list's length: the fault-tolerance depth
SUCCESSOR_LIST_SIZE = 6

#: the nodes of a far finger's interval it is chosen from: the owner of the
#: interval's start and its successors
FINGER_CANDIDATES = 6

#: the period (seconds) of ``stabilize``, the one periodic task
STABILIZE_INTERVAL = 5.0

#: the base wait (seconds) of the far-finger refresh: one finger index per
#: period, backed off while nothing changes
FIX_FINGERS_INTERVAL = 4.0

#: the silence (seconds) after which the predecessor — the node's
#: ``_watched`` neighbour — is pinged
CHECK_PREDECESSOR_INTERVAL = 11.0

#: the older name, still imported by ``benchmarks/child.py``
LookupFailed = harness.LookupFailed


class ChordNode(harness.RoutingNode):
    """One Chord node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides): those of
    :class:`~repro.apps.harness.RoutingNode`.  The maintenance periods are
    :data:`STABILIZE_INTERVAL` and :data:`FIX_FINGERS_INTERVAL`; the hop
    budget ``max_hops`` is three hops per identifier bit.
    """

    __slots__ = ("predecessor", "successors", "fingers", "_covered", "_stamped",
                 "_last_reply", "_next_finger")

    label = "chord"

    def _configure(self, options: dict) -> None:
        super()._configure(options)
        self.max_hops = 3 * self.bits
        #: the neighbour state a ``stabilize`` reply carries: both are
        #: replaced, never mutated, and only when what they hold changes, so
        #: that its stamp can follow them by identity
        self.predecessor: Optional[NodeRef] = None
        self.successors: Tuple[NodeRef, ...] = (self.me,)
        self.fingers: List[Optional[NodeRef]] = [None] * self.bits
        #: finger indices ``0 .. _covered - 1`` are read off the successor list
        self._covered = 0
        #: the (predecessor, successors, stamp) the last stamp was given to:
        #: ``(incarnation, version)``, where the incarnation is the instance
        #: id, so that a new process at a reused endpoint never matches
        self._stamped: tuple = (None, None, (self.instance.instance_id, 0))
        #: ``(peer, reply, merged)``: the last full stabilize reply and the
        #: node that sent it, whose stamp our next call to that node carries,
        #: and the successor tuple merging it produced and the fingers were
        #: read off (``None``: not merged yet, or a far-finger write landed
        #: on a covered index since)
        self._last_reply: tuple = (None, None, None)
        #: the index the far-finger refresh visits next
        self._next_finger = 0
        self.refresh = harness.BackoffTask(self.events, self._fix_fingers,
                                           FIX_FINGERS_INTERVAL)

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._stabilize, STABILIZE_INTERVAL,
                             jitter=STABILIZE_INTERVAL * 0.25)
        # round-robin from index 0: the first far finger comes up after the
        # covered ones would have
        self.refresh.start(max(1, self._covered))
        self.log.info(f"node {self.me} up (id={self.me.id})")

    def _join_via(self, bootstrap: NodeRef) -> Generator:
        """Learn our successor from any member; it is the one to notify."""
        successor = NodeRef.coerce((yield self.rpc.call(
            bootstrap, "find_successor", self.me.id,
            timeout=harness.HOP_TIMEOUT * 8, retries=1)))
        self.successors = (successor,)
        self._read_fingers()
        return (successor,)

    # ------------------------------------------------------------ RPC handlers
    def _rpc_step(self, key: int, avoid: Optional[list] = None) -> dict:
        """One hop of an iterative lookup: done with the owner, or forward."""
        avoided = set(avoid or ())
        successor = self._current_successor()
        if between(key, self.me.id, successor.id, include_high=True):
            return {"done": True, "node": successor}
        nxt = self._closest_preceding(key, avoided)
        return {"done": False, "node": nxt}

    def _rpc_claim(self, key: int) -> dict:
        """Ownership check: is ``key`` in ``(predecessor, me]``?

        A node that recently joined between a stale router and the key is
        invisible to that router's ``step``; its *successor* knows about it
        through ``notify``, so asking the claimed owner to confirm (and
        bounce to its predecessor otherwise) repairs stale-skip errors.
        """
        predecessor = self.predecessor
        if (predecessor is None or predecessor == self.me
                or between(key, predecessor.id, self.me.id, include_high=True)):
            return {"mine": True}
        return {"mine": False, "node": predecessor}

    def _rpc_find_successor(self, key: int) -> Generator:
        """Full lookup on behalf of a caller (used by joins): maintenance."""
        owner, _hops = yield from self.lookup(int(key), maintenance=True)
        return owner

    def _rpc_notify(self, node) -> None:
        """Adopt ``node`` as predecessor if it is closer; a call from the
        predecessor is also the proof that it is alive.  The predecessor is
        the ``_watched`` neighbour whenever there is one."""
        node = NodeRef.coerce(node)
        predecessor = self.predecessor
        if node is predecessor or node == predecessor:  # the usual caller
            self._watched = (node, self.events.now())
        elif node != self.me and (predecessor is None
                                  or between(node.id, predecessor.id, self.me.id)):
            self.predecessor = node
            self._watched = (node, self.events.now())

    def _rpc_stabilize(self, node, *seen):
        """One stabilize hop: ``notify``, then what the caller needs to adopt
        a closer successor and refresh its successor list — or, when that is
        what the stamp ``seen`` covers, the bare stamp.

        The stamp is ``(incarnation, version)``, sent as two arguments: the
        version moves on when the predecessor or the successor tuple is
        another object than the last stamp was given to."""
        self._rpc_notify(node)
        predecessor, successors, stamp = self._stamped
        if predecessor is not self.predecessor or successors is not self.successors:
            predecessor, successors = self.predecessor, self.successors
            stamp = (stamp[0], stamp[1] + 1)
            self._stamped = (predecessor, successors, stamp)
        if seen == stamp:
            return stamp
        return {"predecessor": predecessor, "successors": successors, "stamp": stamp}

    def _rpc_successors(self, limit: Optional[int] = None) -> tuple:
        """Our successor list, at most ``limit`` entries of it, which a far
        finger's choice draws from; empty before we joined (a new process at
        a far finger's endpoint)."""
        return self.successors[:limit] if self.joined else ()

    # ------------------------------------------------------------ maintenance
    def _stabilize(self) -> Generator:
        """Verify the successor, adopt a closer one, refresh the successor list;
        then read the fingers off it and check a silent predecessor.

        One ``stabilize`` RPC per hop notifies the node and returns its
        predecessor and successor list.  While that predecessor lies between
        us and the node, the walk moves on to it (bounded): one round can then
        repair a successor pointer that overshot by many nodes.  A reply
        proves its sender alive; the last node that answered is our successor.
        The call carries the stamp of the last full reply when it goes to the
        node that sent it, and a node whose state that stamp still covers
        answers with the stamp alone: then neither the merge nor the finger
        read runs again while our list is the one that merge produced.
        The predecessor proves itself alive by its own stabilize calls, so
        only one silent for :data:`CHECK_PREDECESSOR_INTERVAL` is pinged, and
        dropped when it does not answer.
        """
        self.stats.maintenance_rounds += 1
        node = self._current_successor()
        if node == self.me:
            node = self.predecessor  # alone so far: the predecessor closes the ring
        successor = reply = None
        hops = 8 if node is not None else 0  # alone: nobody to call
        for _hop in range(hops):
            self.stats.maintenance_rpcs += 1
            peer, heard, _merged = self._last_reply
            # ``is``: a node's reference travels as one object; an equal one
            # that is another object only costs a full reply
            seen = heard["stamp"] if node is peer else ()
            try:
                reply = yield self.rpc.call(node, "stabilize", self.me, *seen,
                                            timeout=harness.HOP_TIMEOUT,
                                            retries=harness.HOP_RETRIES)
            except RpcError:
                self._note_dead(node)
                break
            if type(reply) is dict:
                self._last_reply = (node, reply, None)
            else:  # the bare stamp: what we heard last is still true
                reply = heard
            successor = node
            candidate = NodeRef.coerce(reply["predecessor"] or node)  # none: stop
            if not between(candidate.id, self.me.id, node.id):
                break
            node = candidate
        peer, heard, merged = self._last_reply
        if reply is not heard or merged is not self.successors:
            if successor is not None:
                chain = [successor] + [n for n in map(NodeRef.coerce, reply["successors"])
                                       if n != self.me]
                successors = tuple(dict.fromkeys(chain))[:SUCCESSOR_LIST_SIZE]
                if successors != self.successors:
                    self.refresh.stir()
                    self.successors = successors
                if reply is heard:
                    self._last_reply = (peer, heard, self.successors)
            self._read_fingers()
        predecessor = self.predecessor
        if (predecessor is not None and self.events.now() - self._watched[1]
                >= CHECK_PREDECESSOR_INTERVAL):
            self.stats.maintenance_rpcs += 1
            alive = yield self.rpc.ping(predecessor, timeout=harness.HOP_TIMEOUT)
            if not alive and self.predecessor == predecessor:
                self.predecessor = None
                self.stats.dead_nodes_noticed += 1

    def _read_fingers(self) -> None:
        """Set every finger the successor list covers, with no message: finger
        ``i`` is the first entry at least ``2**i`` past us."""
        me, bits, successors = self.me.id, self.bits, self.successors
        reach = [ring_distance(me, node.id, bits) for node in successors]
        self._covered = max(reach).bit_length()
        fingers, entry = self.fingers, 0
        for index in range(self._covered):
            while reach[entry] < 1 << index:  # 2**i grows: the entry only moves on
                entry += 1
            fingers[index] = successors[entry]

    def _fix_fingers(self) -> Generator:
        """Refresh the next finger beyond the successor list's reach,
        round-robin over those indices.

        Finger ``i`` may be any node of ``[me + 2**i, me + 2**(i + 1))``.  One
        that lies there is kept while it answers a ``successors`` call with
        a list; no answer purges it, and an empty list — a process that has
        not joined at its endpoint — clears it.  Any other is looked up and
        chosen by :meth:`_nearest`.  A finger kept, or the same one chosen
        again, is a round that learned nothing.

        Returns how many :data:`FIX_FINGERS_INTERVAL` periods to wait for the
        next one: one per index it passes, the covered indices included, so a
        far finger comes up as often as in a round-robin over the whole table.
        """
        bits = self.bits
        index = max(self._next_finger, self._covered)
        if index == bits:  # the list covers the whole table
            return bits
        width = 1 << index
        start = ring_add(self.me.id, width, bits)
        finger = self.fingers[index]
        if finger is not None and ring_distance(start, finger.id, bits) < width:
            self.stats.maintenance_rpcs += 1
            try:  # one entry or none: only whether it has joined counts
                listed = yield self.rpc.call(finger, "successors", 1,
                                             timeout=harness.HOP_TIMEOUT,
                                             retries=harness.HOP_RETRIES)
            except RpcError:
                self._note_dead(finger)
            else:
                if not listed and self.fingers[index] == finger:
                    self._set_finger(index, None)
                    self.refresh.stir()
        else:
            try:
                owner, _hops = yield from self.lookup(start, maintenance=True)
            except harness.LookupFailed:
                owner = None
            if owner is not None:
                owner = yield from self._nearest(owner, start, width)
            if owner is None or owner != self.fingers[index]:
                self.refresh.stir()
            self._set_finger(index, owner)
        self._next_finger = (index + 1) % bits
        return (max(self._next_finger, self._covered) - index) % bits or bits

    def _set_finger(self, index: int, node: Optional[NodeRef]) -> None:
        """Set a far finger; the successor list may have come to cover its
        index while the refresh waited, and then the next stabilize round
        merges and reads the fingers off the list again."""
        self.fingers[index] = node
        if index < self._covered:
            self._last_reply = (*self._last_reply[:2], None)

    def _nearest(self, owner: NodeRef, start: int, width: int) -> Generator:
        """The finger for ``[start, start + width)``: the nearest by round trip
        of ``owner`` — the owner of ``start`` — and its successors in the
        interval, at most :data:`FINGER_CANDIDATES` nodes.

        One ``successors`` call to the owner names them (and times it); a
        candidate whose host has no ``rpc.rto`` yet is pinged once, one
        probe after the other.  A node of our own host counts as no delay
        and one that did not answer as an infinite one; ties go to the node
        nearer ``start``.  An owner that does not answer is the finger, and
        so is one past the interval: the interval holds no node.
        """
        bits, me, rpc = self.bits, self.me, self.rpc
        if owner == me:
            return owner
        self.stats.maintenance_rpcs += 1
        try:
            following = yield rpc.call(owner, "successors", timeout=harness.HOP_TIMEOUT,
                                       retries=harness.HOP_RETRIES)
        except RpcError:
            return owner
        candidates = [owner]
        for node in map(NodeRef.coerce, following):
            if (len(candidates) == FINGER_CANDIDATES or node == me
                    or ring_distance(start, node.id, bits) >= width):
                break
            candidates.append(node)
        for node in candidates:
            if node.ip != me.ip and node.ip not in rpc.rto:
                self.stats.maintenance_rpcs += 1
                try:
                    yield rpc.call(node, "__ping__", timeout=harness.HOP_TIMEOUT, retries=0)
                except RpcError:
                    pass
        rto = rpc.rto
        return min(candidates,
                   key=lambda node: 0.0 if node.ip == me.ip else rto.get(node.ip, math.inf))

    # ----------------------------------------------------------------- helpers
    def _current_successor(self) -> NodeRef:
        return self.successors[0] if self.successors else self.me

    def _closest_preceding(self, key: int, avoided: set) -> NodeRef:
        """Best known node strictly between us and ``key`` (fingers + successors).

        "Closest" means furthest along the clockwise walk from us towards
        the key, i.e. the candidate maximising ``ring_distance(me, node)``.
        """
        candidates = [f for f in self.fingers if f is not None]
        candidates += self.successors
        best: Optional[NodeRef] = None
        best_distance = -1
        me_id = self.me.id
        previous_id = None
        for node in candidates:
            node_id = node.id
            if node_id == previous_id:
                continue  # the low fingers repeat the successor
            previous_id = node_id
            # Ids hash the endpoint: another id is another node, and an equal
            # one (us, or a collision) is never strictly between us and the key.
            if node_id == me_id or node_id in avoided or not between(node_id, me_id, key):
                continue
            distance = ring_distance(me_id, node_id, self.bits)
            if distance > best_distance:
                best, best_distance = node, distance
        if best is not None:
            return best
        successor = self._current_successor()
        return successor if successor.id not in avoided else self.me

    def neighbours(self) -> Tuple[NodeRef, NodeRef]:
        """Our successor and predecessor (a lone node is its own)."""
        return self.successors[0], self.predecessor or self.me

    def _forget(self, node: NodeRef) -> None:
        """Purge a dead node from the successor list, fingers and predecessor."""
        self.refresh.stir()
        if node in self.successors:
            self.successors = tuple(s for s in self.successors if s != node) or (self.me,)
        self.fingers = [None if f == node else f for f in self.fingers]
        if self.predecessor == node:
            self.predecessor = None


chord_factory = ChordNode.factory


# ----------------------------------------------------------------- scenario
def expected_owner(job, key: int, bits: int) -> Optional[NodeRef]:
    """Ground truth: the successor of ``key`` among current ring members."""
    members = job.shared.get("chord_members", [])
    if not members:
        return None
    return min(members, key=lambda m: (ring_distance(key, m.id, bits), m.ip, m.port))


class ChordScenario(harness.LookupScenario):
    """The flagship: Chord under churn, measured by lookups."""

    name = "chord"
    help = "Chord DHT on a transit-stub network under churn"
    min_success = 0.99
    params = (("lookups", 200, "measured lookups after the ring re-converges"),
              ("bits", 32, "identifier width"))
    node = ChordNode
    oracle = staticmethod(expected_owner)


run_chord_scenario = ChordScenario.runner
