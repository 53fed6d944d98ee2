"""Chord on the SPLAY runtime (the paper's Listing 3, grown fault-tolerant).

"We have implemented Chord for SPLAY ... the implementation is remarkably
compact and close to the pseudo-code."  This module keeps that structure —
``join``, ``stabilize``, ``notify``, ``fix_fingers`` as periodic coroutines
over the RPC library — and adds the successor-list fault tolerance the
paper's churn experiments rely on.

Every remote interaction goes through ``instance.rpc`` (and therefore the
restricted socket): the application never touches the network object.
Lookups are *iterative*: the querying node walks the ring one hop at a time
via the ``step`` RPC, which keeps per-hop timeouts small and lets the walker
route around nodes that died mid-lookup.  The walk and the join retry loop
are :class:`repro.apps.harness.RoutingNode`'s, shared with Pastry; what is
here is the protocol: handlers, maintenance, routing state.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.apps import harness
from repro.lib.ring import between, ring_add, ring_distance
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef


class LookupFailed(Exception):
    """A lookup exhausted its hop budget or every route attempt failed."""


class ChordNode(harness.RoutingNode):
    """One Chord node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides), beyond those of
    :class:`~repro.apps.harness.RoutingNode`: ``stabilize_interval`` /
    ``fix_fingers_interval`` / ``check_predecessor_interval`` — maintenance
    periods; ``successor_list_size`` — fault-tolerance depth.
    """

    label = "chord"
    failure = LookupFailed

    def _configure(self, options: dict) -> None:
        super()._configure(options)
        self.stabilize_interval = float(options.get("stabilize_interval", 5.0))
        self.fix_fingers_interval = float(options.get("fix_fingers_interval", 4.0))
        self.check_predecessor_interval = float(
            options.get("check_predecessor_interval", 11.0))
        self.successor_list_size = int(options.get("successor_list_size", 6))
        self.max_hops = int(options.get("max_hops", 3 * self.bits))
        self.predecessor: Optional[NodeRef] = None
        self.successors: List[NodeRef] = [self.me]
        self.fingers: List[Optional[NodeRef]] = [None] * self.bits
        self._next_finger = 0

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._stabilize, self.stabilize_interval,
                             jitter=self.stabilize_interval * 0.25)
        self.events.periodic(self._fix_fingers, self.fix_fingers_interval,
                             jitter=self.fix_fingers_interval * 0.25)
        self.events.periodic(self._check_predecessor, self.check_predecessor_interval,
                             jitter=self.check_predecessor_interval * 0.25)
        self.log.info(f"node {self.me} up (id={self.me.id})")

    def _join_via(self, bootstrap: NodeRef) -> Generator:
        """Learn our successor from any member; it is the one to notify."""
        successor = NodeRef.coerce((yield self.rpc.call(
            bootstrap, "find_successor", self.me.id,
            timeout=self.hop_timeout * 8, retries=1)))
        self.successors = [successor]
        self.fingers[0] = successor
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

    def _rpc_get_predecessor(self) -> Optional[NodeRef]:
        return self.predecessor

    def _rpc_successor_list(self) -> List[NodeRef]:
        return list(self.successors)

    def _rpc_notify(self, node) -> bool:
        node = NodeRef.coerce(node)
        if node == self.me:
            return False
        if self.predecessor is None or between(node.id, self.predecessor.id, self.me.id):
            self.predecessor = node
            return True
        return False

    # ------------------------------------------------------------ maintenance
    def _stabilize(self) -> Generator:
        """Verify the successor, adopt a closer one, refresh the successor list."""
        self.stats.maintenance_rounds += 1
        successor = self._current_successor()
        try:
            # Walk the predecessor chain back towards us (bounded): a single
            # round can then repair a successor pointer that overshot by many
            # nodes, instead of converging one node per stabilization period.
            for _step in range(8):
                if successor == self.me:
                    candidate = self.predecessor
                else:
                    candidate = yield self.rpc.call(successor, "get_predecessor",
                                                    timeout=self.hop_timeout,
                                                    retries=self.hop_retries)
                if candidate is None:
                    break
                candidate = NodeRef.coerce(candidate)
                if candidate == self.me or candidate == successor:
                    break
                if not between(candidate.id, self.me.id, successor.id):
                    break
                alive = yield self.rpc.ping(candidate, timeout=self.hop_timeout)
                if not alive:
                    break
                successor = candidate
            if successor != self.me:
                remote_list = yield self.rpc.call(successor, "successor_list",
                                                  timeout=self.hop_timeout,
                                                  retries=self.hop_retries)
                chain = [successor] + [NodeRef.coerce(n) for n in remote_list
                                       if NodeRef.coerce(n) != self.me]
                self.successors = _dedupe(chain)[: self.successor_list_size]
                self.fingers[0] = self.successors[0]
                self.rpc.a_call(successor, "notify", self.me,
                                timeout=self.hop_timeout, retries=0)
        except RpcError:
            self._note_dead(successor)

    def _fix_fingers(self) -> Generator:
        """Refresh one finger per round (round-robin over the table)."""
        self._next_finger = (self._next_finger + 1) % self.bits
        start = ring_add(self.me.id, 1 << self._next_finger, self.bits)
        try:
            owner, _hops = yield from self.lookup(start)
            self.fingers[self._next_finger] = owner
        except LookupFailed:
            self.fingers[self._next_finger] = None

    def _check_predecessor(self) -> Generator:
        """Drop the predecessor pointer if it stopped answering pings."""
        predecessor = self.predecessor
        if predecessor is None or predecessor == self.me:
            return
        alive = yield self.rpc.ping(predecessor, timeout=self.hop_timeout)
        if not alive and self.predecessor == predecessor:
            self.predecessor = None
            self.stats.dead_nodes_noticed += 1

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
        for node in candidates:
            node_id = node.id
            # Ids hash the endpoint: another id is another node, and an equal
            # one (us, or a collision) is never strictly between us and the key.
            if node_id == me_id or node_id in avoided:
                continue
            if not between(node_id, me_id, key):
                continue
            distance = ring_distance(me_id, node_id, self.bits)
            if distance > best_distance:
                best, best_distance = node, distance
        if best is not None:
            return best
        successor = self._current_successor()
        if successor.id not in avoided:
            return successor
        return self.me

    def _note_dead(self, node: NodeRef) -> None:
        """Purge a dead node from local routing state."""
        if node == self.me:
            return
        self.stats.dead_nodes_noticed += 1
        self.successors = [s for s in self.successors if s != node]
        if not self.successors:
            self.successors = [self.me]
        self.fingers = [None if f == node else f for f in self.fingers]
        if self.predecessor == node:
            self.predecessor = None


chord_factory = ChordNode.factory


def _dedupe(nodes: List[NodeRef]) -> List[NodeRef]:
    seen = set()
    unique = []
    for node in nodes:
        key = (node.ip, node.port)
        if key not in seen:
            seen.add(key)
            unique.append(node)
    return unique


# ----------------------------------------------------------------- scenario
DEFAULT_CHURN_SCRIPT = harness.FLAGSHIP_CHURN_SCRIPT


def expected_owner(job, key: int, bits: int) -> Optional[NodeRef]:
    """Ground truth: the successor of ``key`` among current ring members."""
    members = job.shared.get("chord_members", [])
    if not members:
        return None
    return min(members, key=lambda m: (ring_distance(key, m.id, bits), m.ip, m.port))


def run_chord_scenario(config: harness.RunConfig, *, lookups: int = 200,
                       bits: int = 32, spacing: float = 0.25,
                       probe_interval: float = 2.0) -> dict:
    """Run the flagship Chord-under-churn scenario and return the report dict.

    ``config`` says how the run executes (:class:`repro.apps.harness.RunConfig`:
    size, seed, testbed, churn, windows, observation flags); the parameters
    here are the workload's own.
    """
    return harness.run_lookup_scenario(
        "chord", config, chord_factory(), LookupFailed, expected_owner,
        lookups=lookups, bits=bits, spacing=spacing,
        probe_interval=probe_interval, default_churn_script=DEFAULT_CHURN_SCRIPT)


def _register() -> None:
    from repro.apps import registry

    def _add_arguments(parser) -> None:
        parser.add_argument("--lookups", type=int, default=200,
                            help="measured lookups after the ring re-converges")
        parser.add_argument("--bits", type=int, default=32, help="identifier width")

    registry.register(registry.ScenarioSpec(
        name="chord",
        help="Chord DHT on a transit-stub network under churn",
        runner=run_chord_scenario,
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        add_arguments=_add_arguments,
        make_kwargs=lambda args: {"lookups": args.lookups, "bits": args.bits},
        ops_param="lookups",
        ops_label="lookup",
        default_min_success=0.99,
    ))


_register()
