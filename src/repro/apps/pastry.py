"""Pastry on the SPLAY runtime (prefix routing, leaf sets, churn repair).

The paper's evaluation deploys Pastry alongside Chord on the same testbed;
this module is the Pastry half: identifiers are strings of ``2**base_bits``
digits, each node keeps a routing table indexed by shared-prefix length and
next digit (``shared_prefix_length`` / ``digit_at`` from ``lib/ring``) plus
a *leaf set* of its numerically closest neighbours on each side of the ring.

Routing forwards to a node whose identifier shares a strictly longer prefix
with the key, falling back to a numerically closer node with an equal
prefix (the "rare case"), and terminates at the numerically closest member
once the key lands inside a leaf set.  Lookups are the same *iterative*
walk Chord uses (:meth:`repro.apps.harness.RoutingNode.lookup`): the querying
node asks one node at a time for its ``step``, routes around nodes that die
mid-lookup, and confirms ownership with a ``claim`` check so recent joins
don't yield stale owners; every reference the walk sees is ``_learned``.

Fault tolerance under churn comes from periodic leaf-set repair and
routing-table maintenance (ask one table entry for its row), mirroring
Pastry's self-stabilisation.  The repair is one exchange per neighbour
pair: each node calls its nearest live clockwise leaf with its own leaf set
and the deaths it saw, so one call informs both sides; the callee probes a
leaf the caller skipped, and calls a counter-clockwise neighbour that has
fallen silent.  The repair keeps its fixed period; the table probe waits
twice as long after each reply that taught nothing, up to
``harness.BACKOFF_CAP`` times, and is back to its period on any change of
the leaf set or table.  A node serves ``step`` and ``claim`` only once it
has joined.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Generator, List, Optional, Tuple

from repro.apps import harness
from repro.lib.ring import between, digit_at, numeric_distance, shared_prefix_length
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef

#: default leaf-set capacity (total, half per side) — also reported by the
#: scenario, so keep the node constructor and this constant in sync
DEFAULT_LEAF_SET_SIZE = 8

#: the older name, still imported by ``benchmarks/child.py``
RouteFailed = harness.LookupFailed


class PastryNode(harness.RoutingNode):
    """One Pastry node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides), beyond those of
    :class:`~repro.apps.harness.RoutingNode`: ``base_bits`` — bits per
    routing digit (``b``; base is ``2**b``); ``leaf_set_size`` — total
    leaf-set capacity (half per side); ``repair_interval`` /
    ``table_probe_interval`` — maintenance periods.
    """

    label = "pastry"
    #: a node still joining answers no routing: a replacement at a reused
    #: endpoint would otherwise claim keys with its empty leaf set
    served_once_live = ("step", "claim")

    def _configure(self, options: dict) -> None:
        super()._configure(options)
        self.base_bits = int(options.get("base_bits", 4))
        if self.bits % self.base_bits:
            raise ValueError(
                f"bits ({self.bits}) must be a multiple of base_bits ({self.base_bits})")
        self.digits = self.bits // self.base_bits
        self.leaf_set_size = int(options.get("leaf_set_size", DEFAULT_LEAF_SET_SIZE))
        self.leaf_half = max(1, self.leaf_set_size // 2)
        self.repair_interval = float(options.get("repair_interval", 5.0))
        self.table_probe_interval = float(options.get("table_probe_interval", 8.0))
        self.max_hops = int(options.get("max_hops", 3 * self.digits + 8))
        #: a live counter-clockwise neighbour (our ``_watched`` one) calls us
        #: at least this often: its repair period with the jitter ``_go_live``
        #: draws (a quarter period at most), plus one timeout for a first try
        #: that was lost
        self._silence = 1.25 * self.repair_interval + self.hop_timeout
        #: the leaf set, keyed by endpoint, in ``(ip, port)`` order: the union
        #: of the two sides (a node sits on both while the ring is small)
        self.leaves: Dict[Tuple[str, int], NodeRef] = {}
        #: the ``leaf_half`` nearest nodes clockwise and counter-clockwise,
        #: nearest first; each tuple is replaced when that side changes
        self._sides: List[Tuple[NodeRef, ...]] = [(), ()]
        #: routing table: ``table[row][column]`` — row = shared prefix
        #: length, column = next digit of the destination
        self.table: List[List[Optional[NodeRef]]] = [
            [None] * (1 << self.base_bits) for _ in range(self.digits)]
        self.refresh = harness.BackoffTask(self.events, self._table_maintenance,
                                           self.table_probe_interval)

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        self.joined = True
        self.members.add(self.me)
        for name in self.served_once_live:
            self.rpc.register(name, getattr(self, "_rpc_" + name))
        self.events.periodic(self._leafset_repair, self.repair_interval,
                             jitter=self.repair_interval * 0.25)
        self.refresh.start()
        self.log.info(f"node {self.me} up (id={self.me.id:0{self.digits}x})")

    def _join_via(self, bootstrap: NodeRef) -> Generator:
        """Route to our own id, adopt the owner's leaf set and tables; returns
        our new leaves, the ones to notify."""
        owner = NodeRef.coerce((yield self.rpc.call(
            bootstrap, "find_owner", self.me.id,
            timeout=self.hop_timeout * 8, retries=1)))
        leafset = yield self.rpc.call(owner, "leafset", self.me,
                                      timeout=self.hop_timeout, retries=1)
        self._learned(bootstrap)
        self._learned(owner)
        self._adopt(leafset)
        # Seed the routing table: early rows from the bootstrap, and the
        # owner's table, which is close to what ours should be.
        for source in ([bootstrap, owner] if bootstrap != owner else [bootstrap]):
            try:
                dump = yield self.rpc.call(source, "table_dump",
                                           timeout=self.hop_timeout, retries=0)
            except RpcError:
                continue
            self._adopt(dump)
        return self._leaf_nodes()

    # ------------------------------------------------------------ RPC handlers
    def _rpc_step(self, key: int, avoid: Optional[list] = None) -> dict:
        """One hop of an iterative lookup: done with the owner, or forward."""
        key = int(key) % (1 << self.bits)
        avoided = set(avoid or ())
        if self._leaf_covers(key):
            return {"done": True, "node": self._closest(key, avoided)}
        row = shared_prefix_length(key, self.me.id, self.digits, self.base_bits)
        entry = self.table[row][digit_at(key, row, self.digits, self.base_bits)]
        if entry is not None and entry.id not in avoided and entry != self.me:
            return {"done": False, "node": entry}
        # Rare case: any known node with an equal-or-longer shared prefix
        # that is strictly numerically closer to the key than we are.
        fallback = self._rare_case(key, row, avoided)
        if fallback is not None:
            return {"done": False, "node": fallback}
        return {"done": True, "node": self.me}

    def _rpc_claim(self, key: int) -> dict:
        """Ownership check: are we the numerically closest among our leaves?
        A recent joiner a stale router missed is known to its neighbours, so
        bouncing to the closer leaf repairs stale-route errors."""
        key = int(key) % (1 << self.bits)
        best = self._closest(key, ())
        if best == self.me:
            return {"mine": True}
        return {"mine": False, "node": best}

    def _rpc_find_owner(self, key: int) -> Generator:
        """Full lookup on behalf of a caller (used by joins)."""
        owner, _hops = yield from self.lookup(int(key))
        return owner

    # Replies travel by reference: hand out only what is never mutated again.
    def _rpc_leafset(self, node, leaves=(), dead=()) -> Tuple[NodeRef, ...]:
        """Leaf-set exchange, both ways: the caller is a neighbour too (this
        is its notify), and so are the ``leaves`` it sends.  A repair call
        from another node than our nearest counter-clockwise leaf may have
        skipped leaves of ours (:meth:`_skipped`).  ``dead`` is the endpoints
        the caller found dead.
        """
        node = NodeRef.coerce(node)
        self._heard(node)
        self._adopt(leaves)
        if leaves and self._watched[0] != node:
            self._skipped(node, leaves, dead)
        return self._leaf_nodes()

    def _rpc_row(self, row: int) -> Tuple[NodeRef, ...]:
        """The occupied entries of one routing-table row."""
        return tuple(entry for entry in self.table[int(row)] if entry is not None)

    def _rpc_table_dump(self) -> Tuple[NodeRef, ...]:
        return tuple(entry for row in self.table for entry in row if entry is not None)

    def _rpc_notify(self, node) -> None:
        self._heard(node)

    # ------------------------------------------------------------ maintenance
    def _leafset_repair(self) -> Generator:
        """Exchange leaf sets with the nearest clockwise leaf: one call per
        neighbour pair, since the callee learns our side from the call.

        A leaf that does not answer is purged and the next one called, at
        most ``leaf_half`` calls a round, so the death travels on in the call
        that succeeds.  Then a nearest counter-clockwise leaf that has not
        called us for ``_silence`` seconds gets one exchange of its own.
        """
        self.stats.maintenance_rounds += 1
        for _call in range(self.leaf_half):
            clockwise = self._sides[0]
            if not clockwise:
                yield from self._reseed()
                return
            reported = set(self._dead)
            remote = yield from self._exchange(clockwise[0])
            if remote is not None:
                self._kept(clockwise[0], remote, reported)
                break
        counter_clockwise = self._sides[1]
        if counter_clockwise and self.events.now() - self._watched[1] >= self._silence:
            neighbour = counter_clockwise[0]
            if ((yield from self._exchange(neighbour)) is not None
                    and self._watched[0] == neighbour):
                self._watched = (neighbour, self.events.now())

    def _exchange(self, node: NodeRef) -> Generator:
        """One leaf-set exchange: send ``node`` our leaf set and the deaths we
        saw, adopt its leaf set.  No answer purges it; returns the reply, or None."""
        self.stats.maintenance_rpcs += 1
        try:
            remote = yield self.rpc.call(node, "leafset", self.me, self._leaf_nodes(),
                                         tuple(self._dead), timeout=self.hop_timeout,
                                         retries=self.hop_retries)
        except RpcError:
            self._note_dead(node)
            return None
        self._adopt(remote)
        return remote

    def _kept(self, clockwise: NodeRef, remote, reported: set) -> None:
        """Take back the leaves we reported dead that our clockwise neighbour
        still holds between us: it kept only those that called it since our
        exchange with them failed (:meth:`_skipped`)."""
        size = 1 << self.bits
        reach = (clockwise.id - self.me.id) % size
        for node in map(NodeRef.coerce, remote):
            if ((node.ip, node.port) in reported
                    and 0 < (node.id - self.me.id) % size < reach):
                self._dead.pop((node.ip, node.port), None)
                self._learned(node)

    def _skipped(self, caller: NodeRef, leaves, dead) -> None:
        """Act on the counter-clockwise leaves a repair caller skipped.

        A caller that holds us as its nearest clockwise leaf calls us every
        round, and our leaves between it and us are then nodes it does not
        hold.  One its death list names is purged at once.  The nearest other
        one is probed with an exchange of ours and purged only if that gets
        no answer, never on hearsay: the caller may just not know it yet.
        """
        size = 1 << self.bits
        reach = (self.me.id - caller.id) % size
        if any(0 < (NodeRef.coerce(leaf).id - caller.id) % size < reach
               for leaf in leaves):
            return  # it knows a node nearer than us: we are not its neighbour
        reported = set(map(tuple, dead))
        # A leaf that called us since the caller's exchange with it began
        # (the time a failing one takes) outlived what the caller saw.
        nearest, heard = self._watched
        if self.events.now() - heard >= (1 + self.hop_retries) * self.hop_timeout:
            nearest = None
        probe = None
        for leaf in self._sides[1]:  # nearest first; _forget replaces the tuple
            if (self.me.id - leaf.id) % size >= reach:
                break
            if (leaf.ip, leaf.port) in reported and leaf != nearest:
                self.stats.deaths_reported += 1
                self._forget(leaf)
            elif probe is None:
                probe = leaf
        if probe is not None and (probe.ip, probe.port) not in self._probing:
            self._probing.add((probe.ip, probe.port))
            self.events.thread(self._probe, probe)

    def _probe(self, leaf: NodeRef) -> Generator:
        """The one exchange with a skipped leaf (see :meth:`_skipped`)."""
        try:
            yield from self._exchange(leaf)
        finally:
            self._probing.discard((leaf.ip, leaf.port))

    def _table_maintenance(self) -> Generator:
        """Ask one random table entry for its row at that level (MSPastry): the
        reply proves it alive and fills our empty slots; no reply purges it.
        A reply that fills no slot and changes no leaf is a round that learned
        nothing (the wait to the next one doubles, see ``refresh``)."""
        occupied = [(r, c) for r, row in enumerate(self.table)
                    for c, entry in enumerate(row) if entry is not None]
        if not occupied:
            return
        row, column = self._rng.choice(occupied)
        entry = self.table[row][column]
        self.stats.maintenance_rpcs += 1
        try:
            remote = yield self.rpc.call(entry, "row", row, timeout=self.hop_timeout,
                                         retries=self.hop_retries)
        except RpcError:
            self._note_dead(entry)
            return
        self._adopt(remote)

    def _reseed(self) -> Generator:
        """Every leaf died: join again through a member of the directory."""
        bootstrap = self._pick_member()
        if bootstrap is None:
            return
        try:
            yield from self._join_via(bootstrap)
        except RpcError:
            pass

    # ----------------------------------------------------------------- helpers
    def _closest(self, key: int, avoided) -> NodeRef:
        """Us or the leaf not in ``avoided`` numerically closest to ``key``,
        by (distance, id, ip, port): a deterministic total order.  The
        distance is ``numeric_distance``'s, computed in the loop."""
        size = 1 << self.bits
        best = me = self.me
        forward = (me.id - key) % size
        best_key = (min(forward, size - forward), me.id, me.ip, me.port)
        for node in self.leaves.values():
            if node.id in avoided:
                continue
            forward = (node.id - key) % size
            candidate = (min(forward, size - forward), node.id, node.ip, node.port)
            if candidate < best_key:
                best, best_key = node, candidate
        return best

    def _leaf_nodes(self) -> Tuple[NodeRef, ...]:
        """The leaf set in ``(ip, port)`` order (the order replies carry)."""
        return tuple(self.leaves.values())

    def neighbours(self) -> Tuple[NodeRef, NodeRef]:
        """Our nearest leaf on each side, clockwise first (a lone node is its own)."""
        cw, ccw = self._sides
        return (cw[0] if cw else self.me), (ccw[0] if ccw else self.me)

    def _leaf_covers(self, key: int) -> bool:
        """True when ``key`` falls inside the span of our leaf set."""
        if len(self.leaves) < 2 * self.leaf_half:
            # Alone we own everything, and an unsaturated leaf set holds every
            # member we know of: numeric closeness decides ownership directly.
            return True
        return between(key, self._sides[1][-1].id, self._sides[0][-1].id,
                       include_low=True, include_high=True)

    def _rare_case(self, key: int, row: int, avoided: set) -> Optional[NodeRef]:
        """Any known node with prefix >= ``row`` strictly closer to ``key``."""
        size = 1 << self.bits
        forward = (self.me.id - key) % size
        mine = min(forward, size - forward)  # as in _closest
        best: Optional[NodeRef] = None
        best_key = None
        for node in self._known_nodes():
            if node.id in avoided or node == self.me:
                continue
            if shared_prefix_length(key, node.id, self.digits, self.base_bits) < row:
                continue
            forward = (node.id - key) % size
            candidate_key = (min(forward, size - forward), node.id, node.ip, node.port)
            if candidate_key[0] >= mine:
                continue
            if best is None or candidate_key < best_key:
                best, best_key = node, candidate_key
        return best

    def _known_nodes(self) -> Tuple[NodeRef, ...]:
        known = dict(self.leaves)
        for table_row in self.table:
            for entry in table_row:
                if entry is not None:
                    known.setdefault((entry.ip, entry.port), entry)
        return tuple(known[k] for k in sorted(known))

    def _slot(self, node_id: int) -> Optional[Tuple[int, int]]:
        """The one routing-table ``(row, column)`` a node with this id can fill."""
        row = shared_prefix_length(node_id, self.me.id, self.digits, self.base_bits)
        if row == self.digits:
            return None
        return row, digit_at(node_id, row, self.digits, self.base_bits)

    def _adopt(self, entries) -> None:
        """Learn the nodes another node's message lists, but not a leaf we
        found dead since: a reference it has not purged yet must not revive it."""
        for node in map(NodeRef.coerce, entries):
            if (node.ip, node.port) not in self._dead:
                self._learned(node)

    def _learned(self, node: NodeRef) -> None:
        """Fold a freshly observed node into the leaf set and routing table."""
        if node is None or node.id is None or node == self.me:
            return
        if (node.ip, node.port) not in self.leaves and self._offer_leaf(node):
            self._sides_changed()
            self.refresh.stir()
        slot = self._slot(node.id)
        if slot is not None and self.table[slot[0]][slot[1]] is None:
            self.table[slot[0]][slot[1]] = node
            self.refresh.stir()

    def _leaf_key(self, node: NodeRef, direction: int) -> tuple:
        """Sort key of a side: ring distance from us going ``direction``, then endpoint."""
        return direction * (node.id - self.me.id) % (1 << self.bits), node.ip, node.port

    def _offer_leaf(self, node: NodeRef) -> bool:
        """Insert a node we do not hold on each side where it is among the
        nearest; one farther than both tails of a full set costs two compares."""
        admitted = False
        for index, direction in enumerate((1, -1)):  # clockwise, counter-clockwise
            side = self._sides[index]
            if (len(side) < self.leaf_half or self._leaf_key(node, direction)
                    < self._leaf_key(side[-1], direction)):
                grown = list(side)
                insort(grown, node, key=lambda n: self._leaf_key(n, direction))
                self._sides[index] = tuple(grown[: self.leaf_half])
                admitted = True
        return admitted

    def _sides_changed(self) -> None:
        """Re-derive the leaf set from the sides.  A new nearest
        counter-clockwise leaf starts a fresh silence window."""
        union = {(n.ip, n.port): n for side in self._sides for n in side}
        self.leaves = {endpoint: union[endpoint] for endpoint in sorted(union)}
        ccw = self._sides[1]
        if ccw and ccw[0] != self._watched[0]:
            self._watched = (ccw[0], self.events.now())

    def _forget(self, node: NodeRef) -> None:
        """Purge a dead node: from the leaf set, remembering its endpoint as
        dead (the last ``leaf_set_size`` of them), and from the routing-table
        slot it holds."""
        self.refresh.stir()
        if self.leaves.pop((node.ip, node.port), None) is not None:
            self._dead[node.ip, node.port] = None
            if len(self._dead) > self.leaf_set_size:
                del self._dead[next(iter(self._dead))]
            # The vacancy on a side goes to the nearest survivor from the
            # other side: offer every survivor to both sides afresh.
            self._sides = [(), ()]
            for survivor in self.leaves.values():
                self._offer_leaf(survivor)
            self._sides_changed()
        slot = self._slot(node.id)
        if slot is not None and self.table[slot[0]][slot[1]] == node:
            self.table[slot[0]][slot[1]] = None


pastry_factory = PastryNode.factory


# ----------------------------------------------------------------- scenario
def expected_owner(job, key: int, bits: int) -> Optional[NodeRef]:
    """Ground truth: the numerically closest current member to ``key``."""
    members = job.shared.get("pastry_members", [])
    if not members:
        return None
    return min(members, key=lambda m: (numeric_distance(key, m.id, bits),
                                       m.id, m.ip, m.port))


class PastryScenario(harness.LookupScenario):
    """Pastry under churn, on the Chord flagship's churn timeline."""

    name = "pastry"
    help = "Pastry prefix routing with leaf sets under churn"
    params = (("lookups", 200, "measured lookups after the overlay re-converges"),
              ("bits", 32, "identifier width"),
              ("base_bits", 4, "bits per routing digit (b; routing base is 2^b)"))
    node = PastryNode
    oracle = staticmethod(expected_owner)

    def __init__(self, config: harness.RunConfig, **params) -> None:
        super().__init__(config, **params)
        if self.base_bits < 1 or self.bits % self.base_bits:
            raise ValueError(f"bits ({self.bits}) must be a multiple of "
                             f"base_bits ({self.base_bits})")

    def app(self) -> tuple:
        return pastry_factory(), {"bits": self.bits, "base_bits": self.base_bits}

    def sections(self, deployment: harness.Deployment) -> dict:
        return {**super().sections(deployment),
                "workload": {"base_bits": self.base_bits,
                             "digits": self.bits // self.base_bits,
                             "leaf_set_size": DEFAULT_LEAF_SET_SIZE}}


run_pastry_scenario = PastryScenario.runner
