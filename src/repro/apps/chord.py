"""Chord on the SPLAY runtime (the paper's Listing 3, grown fault-tolerant).

"We have implemented Chord for SPLAY ... the implementation is remarkably
compact and close to the pseudo-code."  This module keeps that structure —
``join``, ``stabilize``, ``notify``, ``fix_fingers`` as coroutines over the
RPC library — and adds the successor-list fault tolerance the paper's churn
experiments rely on.  ``stabilize`` is the one fixed-period task: it also
reads the fingers its successor list covers and checks a silent
predecessor.  ``fix_fingers`` looks up only the fingers beyond the list's
reach, and waits longer while they keep coming back unchanged.

Every remote interaction goes through ``instance.rpc`` (and therefore the
restricted socket): the application never touches the network object.
Lookups are *iterative*: the querying node walks the ring one hop at a time
via the ``step`` RPC, which keeps per-hop timeouts small and lets the walker
route around nodes that died mid-lookup.  The walk and the join retry loop
are :class:`repro.apps.harness.RoutingNode`'s, shared with Pastry; what is
here is the protocol: handlers, maintenance, routing state.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.apps import harness
from repro.lib.ring import between, ring_add, ring_distance
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef

#: the successor list's length: the fault-tolerance depth
SUCCESSOR_LIST_SIZE = 6

#: the older name, still imported by ``benchmarks/child.py``
LookupFailed = harness.LookupFailed


class ChordNode(harness.RoutingNode):
    """One Chord node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides), beyond those of
    :class:`~repro.apps.harness.RoutingNode`: ``stabilize_interval`` — the
    period of the one periodic task; ``fix_fingers_interval`` — the
    round-robin period of the far-finger refresh (one finger index per
    period, backed off while nothing changes);
    ``check_predecessor_interval`` — the silence after which the
    predecessor (the node's ``_watched`` neighbour) is pinged.
    """

    label = "chord"

    def _configure(self, options: dict) -> None:
        super()._configure(options)
        self.stabilize_interval = float(options.get("stabilize_interval", 5.0))
        self.fix_fingers_interval = float(options.get("fix_fingers_interval", 4.0))
        self.check_predecessor_interval = float(
            options.get("check_predecessor_interval", 11.0))
        self.max_hops = int(options.get("max_hops", 3 * self.bits))
        self.predecessor: Optional[NodeRef] = None
        self.successors: List[NodeRef] = [self.me]
        self.fingers: List[Optional[NodeRef]] = [None] * self.bits
        #: finger indices ``0 .. _covered - 1`` are read off the successor list
        self._covered = 0
        #: the index the far-finger refresh visits next
        self._next_finger = 0
        self.refresh = harness.BackoffTask(self.events, self._fix_fingers,
                                           self.fix_fingers_interval)

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._stabilize, self.stabilize_interval,
                             jitter=self.stabilize_interval * 0.25)
        # round-robin from index 0: the first far finger comes up after the
        # covered ones would have
        self.refresh.start(max(1, self._covered))
        self.log.info(f"node {self.me} up (id={self.me.id})")

    def _join_via(self, bootstrap: NodeRef) -> Generator:
        """Learn our successor from any member; it is the one to notify."""
        successor = NodeRef.coerce((yield self.rpc.call(
            bootstrap, "find_successor", self.me.id,
            timeout=self.hop_timeout * 8, retries=1)))
        self.successors = [successor]
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
        """Full lookup on behalf of a caller (used by joins)."""
        owner, _hops = yield from self.lookup(int(key))
        return owner

    def _rpc_notify(self, node) -> None:
        """Adopt ``node`` as predecessor if it is closer; a call from the
        predecessor is also the proof that it is alive.  The predecessor is
        the ``_watched`` neighbour whenever there is one."""
        node = NodeRef.coerce(node)
        predecessor = self.predecessor
        if node != self.me and (predecessor is None
                                or between(node.id, predecessor.id, self.me.id)):
            self.predecessor = node
            self._watched = (node, self.events.now())
        elif node == predecessor:
            self._watched = (node, self.events.now())

    def _rpc_stabilize(self, node) -> dict:
        """One stabilize hop: ``notify``, then what the caller needs to adopt
        a closer successor and refresh its successor list."""
        self._rpc_notify(node)
        return {"predecessor": self.predecessor, "successors": list(self.successors)}

    # ------------------------------------------------------------ maintenance
    def _stabilize(self) -> Generator:
        """Verify the successor, adopt a closer one, refresh the successor list;
        then read the fingers off it and check a silent predecessor.

        One ``stabilize`` RPC per hop notifies the node and returns its
        predecessor and successor list.  While that predecessor lies between
        us and the node, the walk moves on to it (bounded): one round can then
        repair a successor pointer that overshot by many nodes.  A reply
        proves its sender alive; the last node that answered is our successor.
        The predecessor proves itself alive by its own stabilize calls, so
        only one silent for ``check_predecessor_interval`` is pinged, and
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
            try:
                reply = yield self.rpc.call(node, "stabilize", self.me,
                                            timeout=self.hop_timeout,
                                            retries=self.hop_retries)
            except RpcError:
                self._note_dead(node)
                break
            successor = node
            candidate = NodeRef.coerce(reply["predecessor"] or node)  # none: stop
            if not between(candidate.id, self.me.id, node.id):
                break
            node = candidate
        if successor is not None:
            chain = [successor] + [n for n in map(NodeRef.coerce, reply["successors"])
                                   if n != self.me]
            successors = list(dict.fromkeys(chain))[:SUCCESSOR_LIST_SIZE]
            if successors != self.successors:
                self.refresh.stir()
            self.successors = successors
        self._read_fingers()
        predecessor = self.predecessor
        if (predecessor is not None and self.events.now() - self._watched[1]
                >= self.check_predecessor_interval):
            self.stats.maintenance_rpcs += 1
            alive = yield self.rpc.ping(predecessor, timeout=self.hop_timeout)
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
        """Refresh the next finger beyond the successor list's reach with a
        lookup, round-robin over those indices.

        Returns how many ``fix_fingers_interval`` periods to wait for the next
        one: one per index it passes, the covered indices included, so a far
        finger comes up as often as in a round-robin over the whole table.
        The same finger coming back is a round that learned nothing.
        """
        bits = self.bits
        index = max(self._next_finger, self._covered)
        if index == bits:  # the list covers the whole table
            return bits
        start = ring_add(self.me.id, 1 << index, bits)
        try:
            owner, _hops = yield from self.lookup(start, maintenance=True)
        except harness.LookupFailed:
            owner = None
        if owner is None or owner != self.fingers[index]:
            self.refresh.stir()
        self.fingers[index] = owner
        self._next_finger = (index + 1) % bits
        return (max(self._next_finger, self._covered) - index) % bits or bits

    # ----------------------------------------------------------------- helpers
    def _current_successor(self) -> NodeRef:
        return self.successors[0] if self.successors else self.me

    def _closest_preceding(self, key: int, avoided: set) -> NodeRef:
        """Best known node strictly between us and ``key`` (fingers + successors).

        "Closest" means furthest along the clockwise walk from us towards
        the key, i.e. the candidate maximising ``ring_distance(me, node)``.
        """
        candidates = [f for f in self.fingers if f is not None] + self.successors
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
        self.successors = [s for s in self.successors if s != node] or [self.me]
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
