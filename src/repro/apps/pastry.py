"""Pastry on the SPLAY runtime (prefix routing, leaf sets, churn repair).

The paper's evaluation deploys Pastry alongside Chord on the same testbed;
this module is the Pastry half: identifiers are strings of ``2**base_bits``
digits, each node keeps a routing table indexed by shared-prefix length and
next digit (``shared_prefix_length`` / ``digit_at`` from ``lib/ring``) plus
a *leaf set* of its numerically closest neighbours on each side of the ring.

Routing forwards to a node whose identifier shares a strictly longer prefix
with the key, falling back to a numerically closer node with an equal
prefix (the "rare case"), and terminates at the numerically closest member
once the key lands inside a leaf set.  Lookups are the same *forwarded*
walk Chord uses (:meth:`repro.apps.harness.RoutingNode.lookup`): each node
runs its ``step`` and passes the walk on, a hop routes around a next hop
that does not acknowledge it, and the named owner confirms ownership with
its ``claim`` check, so recent joins don't yield stale owners, and answers
the querying node, which ``_learned``s every node on the path.

Fault tolerance under churn comes from periodic leaf-set repair and
routing-table maintenance (ask one table entry for its row), mirroring
Pastry's self-stabilisation.  The repair is one exchange per neighbour
pair: each node calls its nearest live clockwise leaf with its own leaf set
and the deaths it saw, so one call informs both sides; the callee probes a
leaf the caller skipped, and calls a counter-clockwise neighbour that has
fallen silent.  The repair keeps its fixed period; the table probe waits
twice as long after each reply that taught nothing, up to
``harness.BACKOFF_CAP`` times, and is back to its period on any change of
the leaf set or table.  A node serves ``walk`` (and the fallback's ``step``
and ``claim``) only once it has joined, so a claim is a call here: the node
that names an owner hears a refusal and routes around it.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Generator, List, Optional, Tuple

from repro.apps import harness
from repro.lib.ring import between, digit_at, numeric_distance, shared_prefix_length
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef

#: the leaf-set capacity (total, half per side), as the scenario reports it
DEFAULT_LEAF_SET_SIZE = 8
#: the leaves kept on each side: the nearest clockwise and counter-clockwise
LEAF_HALF = DEFAULT_LEAF_SET_SIZE // 2

#: the fixed period (seconds) of the leaf-set repair
REPAIR_INTERVAL = 5.0
#: the base wait (seconds) of the routing-table probe, backed off while its
#: rows teach nothing
TABLE_PROBE_INTERVAL = 8.0

#: a live counter-clockwise neighbour (a node's ``_watched`` one) calls it at
#: least this often: its repair period with the jitter ``_go_live`` draws (a
#: quarter period at most), plus one timeout for a first try that was lost
SILENCE = 1.25 * REPAIR_INTERVAL + harness.HOP_TIMEOUT

#: the older name, still imported by ``benchmarks/child.py``
RouteFailed = harness.LookupFailed


def check_digits(bits: int, base_bits: int) -> None:
    """Refuse a ``bits``-wide identifier that is no whole number of base
    ``2**base_bits`` digits: the scenario before it deploys, a node of a
    direct deploy as it starts."""
    if bits % base_bits:
        raise ValueError(f"bits ({bits}) must be a multiple of base_bits ({base_bits})")


class PastryNode(harness.RoutingNode):
    """One Pastry node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides), beyond those of
    :class:`~repro.apps.harness.RoutingNode`: ``base_bits`` — bits per
    routing digit (``b``; base is ``2**b``).  The leaf set holds
    :data:`DEFAULT_LEAF_SET_SIZE` nodes; the maintenance periods are
    :data:`REPAIR_INTERVAL` and :data:`TABLE_PROBE_INTERVAL`.
    """

    __slots__ = ("base_bits", "digits", "leaves", "_sides", "table", "_known")

    label = "pastry"
    #: a node still joining answers no routing: a replacement at a reused
    #: endpoint would otherwise claim keys with its empty leaf set
    served_once_live = ("step", "claim", "walk")

    def _configure(self, options: dict) -> None:
        super()._configure(options)
        self.base_bits = int(options.get("base_bits", 4))
        if self.bits % self.base_bits:  # inline: a valid node makes no extra call
            check_digits(self.bits, self.base_bits)
        self.digits = self.bits // self.base_bits
        self.max_hops = 3 * self.digits + 8
        #: the leaf set, keyed by endpoint, in ``(ip, port)`` order: the union
        #: of the two sides (a node sits on both while the ring is small)
        self.leaves: Dict[Tuple[str, int], NodeRef] = {}
        #: the :data:`LEAF_HALF` nearest nodes clockwise and counter-clockwise,
        #: nearest first; each tuple is replaced when that side changes
        self._sides: List[Tuple[NodeRef, ...]] = [(), ()]
        #: routing table: ``table[row][column]`` — row = shared prefix
        #: length, column = next digit of the destination
        self.table: List[List[Optional[NodeRef]]] = [
            [None] * (1 << self.base_bits) for _ in range(self.digits)]
        #: id -> the very reference last folded in by :meth:`_learned` since
        #: the last purge, for which the fold-in is a no-op (see there); it
        #: starts with ``me``, which every neighbour's leaf set names
        self._known: Dict[int, NodeRef] = {self.me.id: self.me}
        self.refresh = harness.BackoffTask(self.events, self._table_maintenance,
                                           TABLE_PROBE_INTERVAL)

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        self.joined = True
        self.members.add(self.me)
        for name in self.served_once_live:
            self.rpc.register(name, getattr(self, "_rpc_" + name))
        self.events.periodic(self._leafset_repair, REPAIR_INTERVAL,
                             jitter=REPAIR_INTERVAL * 0.25)
        self.refresh.start()
        self.log.info(f"node {self.me} up (id={self.me.id:0{self.digits}x})")

    def _join_via(self, bootstrap: NodeRef) -> Generator:
        """Route to our own id, adopt the owner's leaf set and tables; returns
        our new leaves, the ones to notify."""
        owner = NodeRef.coerce((yield self.rpc.call(
            bootstrap, "find_owner", self.me.id,
            timeout=harness.HOP_TIMEOUT * 8, retries=1)))
        leafset = yield self.rpc.call(owner, "leafset", self.me,
                                      timeout=harness.HOP_TIMEOUT, retries=1)
        self._learned(bootstrap)
        self._learned(owner)
        self._adopt(leafset)
        # Seed the routing table: early rows from the bootstrap, and the
        # owner's table, which is close to what ours should be.
        for source in ([bootstrap, owner] if bootstrap != owner else [bootstrap]):
            try:
                dump = yield self.rpc.call(source, "table_dump",
                                           timeout=harness.HOP_TIMEOUT, retries=0)
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
        """Full lookup on behalf of a caller (used by joins): maintenance."""
        owner, _hops = yield from self.lookup(int(key), maintenance=True)
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
        most :data:`LEAF_HALF` calls a round, so the death travels on in the
        call that succeeds.  Then a nearest counter-clockwise leaf that has not
        called us for :data:`SILENCE` seconds gets one exchange of its own.
        """
        self.stats.maintenance_rounds += 1
        for _call in range(LEAF_HALF):
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
        if counter_clockwise and self.events.now() - self._watched[1] >= SILENCE:
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
                                         tuple(self._dead), timeout=harness.HOP_TIMEOUT,
                                         retries=harness.HOP_RETRIES)
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
        if self.events.now() - heard >= (1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT:
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
            remote = yield self.rpc.call(entry, "row", row, timeout=harness.HOP_TIMEOUT,
                                         retries=harness.HOP_RETRIES)
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
        if len(self.leaves) < 2 * LEAF_HALF:
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
        found dead since: a reference it has not purged yet must not revive it.
        A reference already folded in costs one probe of ``_known``: dead or
        not, :meth:`_learned` would leave everything as it is."""
        known, dead, learned = self._known.get, self._dead, self._learned
        for node in entries:
            if type(node) is NodeRef and known(node.id) is node:
                continue
            node = NodeRef.coerce(node)
            if (node.ip, node.port) not in dead:
                learned(node)

    def _learned(self, node: NodeRef) -> None:
        """Fold a freshly observed node into the leaf set and routing table.

        Between two purges both only grow: a side's tail only gets nearer, a
        slot only goes from empty to filled.  So once a reference is folded
        in, folding in the same object again changes nothing until
        :meth:`_forget` removes something and starts ``_known`` afresh.
        """
        if node is None or self._known.get(node.id) is node:
            return
        if node.id is None or node == self.me:
            return
        if (node.ip, node.port) not in self.leaves and self._offer_leaf(node):
            self._sides_changed()
            self.refresh.stir()
        slot = self._slot(node.id)
        if slot is not None and self.table[slot[0]][slot[1]] is None:
            self.table[slot[0]][slot[1]] = node
            self.refresh.stir()
        self._known[node.id] = node

    def _leaf_key(self, node: NodeRef, direction: int) -> tuple:
        """Sort key of a side: ring distance from us going ``direction``, then endpoint."""
        return direction * (node.id - self.me.id) % (1 << self.bits), node.ip, node.port

    def _offer_leaf(self, node: NodeRef) -> bool:
        """Insert a node we do not hold on each side where it is among the
        nearest; one farther than both tails of a full set costs two compares."""
        admitted = False
        for index, direction in enumerate((1, -1)):  # clockwise, counter-clockwise
            side = self._sides[index]
            if (len(side) < LEAF_HALF or self._leaf_key(node, direction)
                    < self._leaf_key(side[-1], direction)):
                grown = list(side)
                insort(grown, node, key=lambda n: self._leaf_key(n, direction))
                self._sides[index] = tuple(grown[:LEAF_HALF])
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
        dead (the last :data:`DEFAULT_LEAF_SET_SIZE` of them), and from the
        routing-table slot it holds.  Either removal starts ``_known`` afresh."""
        self.refresh.stir()
        if self.leaves.pop((node.ip, node.port), None) is not None:
            self._known = {self.me.id: self.me}
            self._dead[node.ip, node.port] = None
            if len(self._dead) > DEFAULT_LEAF_SET_SIZE:
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
            self._known = {self.me.id: self.me}


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
        check_digits(self.bits, self.base_bits)

    def app(self) -> tuple:
        return pastry_factory(), {"bits": self.bits, "base_bits": self.base_bits}

    def sections(self, deployment: harness.Deployment) -> dict:
        return {**super().sections(deployment),
                "workload": {"base_bits": self.base_bits,
                             "digits": self.bits // self.base_bits,
                             "leaf_set_size": DEFAULT_LEAF_SET_SIZE}}


run_pastry_scenario = PastryScenario.runner
