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

Fault tolerance under churn comes from periodic leaf-set repair (exchange
leaf sets with the nearest live neighbour on each side) and routing-table
probing, mirroring Pastry's self-stabilisation.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Generator, List, Optional, Tuple

from repro.apps import harness
from repro.lib.ring import (
    between,
    digit_at,
    numeric_distance,
    shared_prefix_length,
)
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef

#: default leaf-set capacity (total, half per side) — also reported by the
#: scenario, so keep the node constructor and this constant in sync
DEFAULT_LEAF_SET_SIZE = 8


class RouteFailed(Exception):
    """A lookup exhausted its hop budget or every route attempt failed."""


class PastryNode(harness.RoutingNode):
    """One Pastry node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides), beyond those of
    :class:`~repro.apps.harness.RoutingNode`: ``base_bits`` — bits per
    routing digit (``b``; base is ``2**b``); ``leaf_set_size`` — total
    leaf-set capacity (half per side); ``repair_interval`` /
    ``table_probe_interval`` — maintenance periods.
    """

    label = "pastry"
    failure = RouteFailed

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

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._leafset_repair, self.repair_interval,
                             jitter=self.repair_interval * 0.25)
        self.events.periodic(self._table_maintenance, self.table_probe_interval,
                             jitter=self.table_probe_interval * 0.25)
        self.log.info(f"node {self.me} up (id={self.me.id:0{self.digits}x})")

    def _join_via(self, bootstrap: NodeRef) -> Generator:
        """Route to our own id, adopt the owner's leaf set and tables.

        Our new leaves are the ones to notify.
        """
        owner = NodeRef.coerce((yield self.rpc.call(
            bootstrap, "find_owner", self.me.id,
            timeout=self.hop_timeout * 8, retries=1)))
        leafset = yield self.rpc.call(owner, "leafset",
                                      timeout=self.hop_timeout, retries=1)
        self._learned(bootstrap)
        self._learned(owner)
        for entry in leafset:
            self._learned(NodeRef.coerce(entry))
        # Seed the routing table: rows from the bootstrap (long prefixes
        # are unlikely there, but early rows are) and from the owner
        # (whose table is close to what ours should be).
        for source in ([bootstrap, owner] if bootstrap != owner else [bootstrap]):
            try:
                dump = yield self.rpc.call(source, "table_dump",
                                           timeout=self.hop_timeout, retries=0)
            except RpcError:
                continue
            for entry in dump:
                self._learned(NodeRef.coerce(entry))
        return self._leaf_nodes()

    # ------------------------------------------------------------ RPC handlers
    def _rpc_step(self, key: int, avoid: Optional[list] = None) -> dict:
        """One hop of an iterative lookup: done with the owner, or forward."""
        key = int(key) % (1 << self.bits)
        avoided = set(avoid or ())
        leaves = [n for n in self._leaf_nodes() if n.id not in avoided]
        if self._leaf_covers(key):
            best = min(leaves + [self.me], key=self._closeness_key(key))
            return {"done": True, "node": best}
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

        A node that recently joined next to the key may be invisible to a
        stale router; its neighbours know it through leaf-set exchange, so
        asking the claimed owner to confirm (and bounce to the closer leaf
        otherwise) repairs stale-route errors.
        """
        key = int(key) % (1 << self.bits)
        best = min((*self._leaf_nodes(), self.me), key=self._closeness_key(key))
        if best == self.me:
            return {"mine": True}
        return {"mine": False, "node": best}

    def _rpc_find_owner(self, key: int) -> Generator:
        """Full lookup on behalf of a caller (used by joins)."""
        owner, _hops = yield from self.lookup(int(key))
        return owner

    # Replies travel by reference: hand out only what is never mutated again.
    def _rpc_leafset(self) -> Tuple[NodeRef, ...]:
        return self._leaf_nodes()

    def _rpc_table_dump(self) -> Tuple[NodeRef, ...]:
        return tuple(entry for row in self.table for entry in row if entry is not None)

    def _rpc_notify(self, node) -> bool:
        self._learned(NodeRef.coerce(node))
        return True

    # ------------------------------------------------------------ maintenance
    def _leafset_repair(self) -> Generator:
        """Exchange leaf sets with the nearest live neighbour on each side."""
        self.stats.maintenance_rounds += 1
        cw, ccw = self._cw(), self._ccw()
        neighbours = []
        if cw:
            neighbours.append(cw[0])
        if ccw and (not cw or ccw[0] != cw[0]):
            neighbours.append(ccw[0])
        if not neighbours:
            yield from self._reseed()
            return
        for neighbour in neighbours:
            try:
                remote = yield self.rpc.call(neighbour, "leafset",
                                             timeout=self.hop_timeout,
                                             retries=self.hop_retries)
            except RpcError:
                self._note_dead(neighbour)
                continue
            for entry in remote:
                self._learned(NodeRef.coerce(entry))
            self.rpc.a_call(neighbour, "notify", self.me,
                            timeout=self.hop_timeout, retries=0)

    def _table_maintenance(self) -> Generator:
        """Probe one random routing-table entry; refresh one random row."""
        occupied = [(r, c) for r, row in enumerate(self.table)
                    for c, entry in enumerate(row) if entry is not None]
        if occupied:
            row, column = self._rng.choice(occupied)
            entry = self.table[row][column]
            if entry is not None:
                alive = yield self.rpc.ping(entry, timeout=self.hop_timeout)
                if not alive:
                    self._note_dead(entry)
        # Route towards a random key to (re)populate a table slot, the same
        # way Chord refreshes fingers.
        probe_key = self._rng.randrange(1 << self.bits)
        try:
            owner, _hops = yield from self.lookup(probe_key)
            self._learned(owner)
        except RouteFailed:
            pass

    def _reseed(self) -> Generator:
        """Every leaf died: fall back to the member list and re-anchor."""
        bootstrap = self._pick_member()
        if bootstrap is None:
            return
        try:
            owner = yield self.rpc.call(bootstrap, "find_owner", self.me.id,
                                        timeout=self.hop_timeout * 8, retries=1)
            owner = NodeRef.coerce(owner)
            self._learned(bootstrap)
            self._learned(owner)
            remote = yield self.rpc.call(owner, "leafset",
                                         timeout=self.hop_timeout, retries=0)
            for entry in remote:
                self._learned(NodeRef.coerce(entry))
        except RpcError:
            pass

    # ----------------------------------------------------------------- helpers
    def _closeness_key(self, key: int):
        """Deterministic total order on 'numerically closest to ``key``'."""
        return lambda n: (numeric_distance(key, n.id, self.bits), n.id, n.ip, n.port)

    def _leaf_nodes(self) -> Tuple[NodeRef, ...]:
        """The leaf set in ``(ip, port)`` order (the order replies carry)."""
        return tuple(self.leaves.values())

    def _cw(self) -> Tuple[NodeRef, ...]:
        """Leaves ordered by clockwise distance from us (nearest first)."""
        return self._sides[0]

    def _ccw(self) -> Tuple[NodeRef, ...]:
        """Leaves ordered by counter-clockwise distance from us (nearest first)."""
        return self._sides[1]

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
        mine = numeric_distance(key, self.me.id, self.bits)
        best: Optional[NodeRef] = None
        best_key = None
        for node in self._known_nodes():
            if node.id in avoided or node == self.me:
                continue
            if shared_prefix_length(key, node.id, self.digits, self.base_bits) < row:
                continue
            candidate_key = self._closeness_key(key)(node)
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

    def _learned(self, node: NodeRef) -> None:
        """Fold a freshly observed node into the leaf set and routing table."""
        if node is None or node.id is None or node == self.me:
            return
        if (node.ip, node.port) not in self.leaves and self._offer_leaf(node):
            self._sides_changed()
        slot = self._slot(node.id)
        if slot is not None and self.table[slot[0]][slot[1]] is None:
            self.table[slot[0]][slot[1]] = node

    def _leaf_key(self, node: NodeRef, direction: int) -> tuple:
        """Sort key of a side: ring distance from us going ``direction``, then endpoint."""
        return direction * (node.id - self.me.id) % (1 << self.bits), node.ip, node.port

    def _offer_leaf(self, node: NodeRef) -> bool:
        """Insert a node we do not hold on each side where it is among the nearest.

        One farther than both tails of a full leaf set costs two comparisons.
        """
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
        """Re-derive the leaf set from the sides."""
        union = {(n.ip, n.port): n for side in self._sides for n in side}
        self.leaves = {endpoint: union[endpoint] for endpoint in sorted(union)}

    def _note_dead(self, node: NodeRef) -> None:
        """Purge a dead node from local routing state."""
        if node == self.me:
            return
        self.stats.dead_nodes_noticed += 1
        if self.leaves.pop((node.ip, node.port), None) is not None:
            # The vacancy on a side goes to the nearest survivor from the
            # other side: offer every survivor to both sides afresh.
            self._sides = [(), ()]
            for survivor in self.leaves.values():
                self._offer_leaf(survivor)
            self._sides_changed()
        slot = self._slot(node.id)
        if slot is not None and self.table[slot[0]][slot[1]] == node:
            self.table[slot[0]][slot[1]] = None

    def routing_snapshot(self) -> dict:
        """Debug/report view of this node's routing state."""
        return {
            "me": self.me,
            "leaves": self._leaf_nodes(),
            "table_entries": sum(1 for row in self.table for e in row if e is not None),
            "joined": self.joined,
        }


pastry_factory = PastryNode.factory


# ----------------------------------------------------------------- scenario
#: the Chord flagship script: same relative timeline for a fair comparison
DEFAULT_CHURN_SCRIPT = harness.FLAGSHIP_CHURN_SCRIPT


def expected_owner(job, key: int, bits: int) -> Optional[NodeRef]:
    """Ground truth: the numerically closest current member to ``key``."""
    members = job.shared.get("pastry_members", [])
    if not members:
        return None
    return min(members, key=lambda m: (numeric_distance(key, m.id, bits),
                                       m.id, m.ip, m.port))


def run_pastry_scenario(config: harness.RunConfig, *, lookups: int = 200,
                        bits: int = 32, base_bits: int = 4,
                        spacing: float = 0.25,
                        probe_interval: float = 2.0) -> dict:
    """Run Pastry under (optional) churn and return the report dict."""
    return harness.run_lookup_scenario(
        "pastry", config, pastry_factory(), RouteFailed, expected_owner,
        lookups=lookups, bits=bits, spacing=spacing,
        probe_interval=probe_interval, options={"base_bits": base_bits},
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        workload={"base_bits": base_bits, "digits": bits // base_bits,
                  "leaf_set_size": DEFAULT_LEAF_SET_SIZE})


def _register() -> None:
    from repro.apps import registry

    def _add_arguments(parser) -> None:
        parser.add_argument("--lookups", type=int, default=200,
                            help="measured lookups after the overlay re-converges")
        parser.add_argument("--bits", type=int, default=32, help="identifier width")
        parser.add_argument("--base-bits", type=int, default=4,
                            help="bits per routing digit (b; routing base is 2^b)")

    def _make_kwargs(args) -> dict:
        if args.base_bits < 1 or args.bits % args.base_bits:
            raise ValueError(f"--bits ({args.bits}) must be a multiple of "
                             f"--base-bits ({args.base_bits})")
        return {"lookups": args.lookups, "bits": args.bits,
                "base_bits": args.base_bits}

    registry.register(registry.ScenarioSpec(
        name="pastry",
        help="Pastry prefix routing with leaf sets under churn",
        runner=run_pastry_scenario,
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        add_arguments=_add_arguments,
        make_kwargs=_make_kwargs,
        ops_param="lookups",
        ops_label="lookup",
        default_min_success=0.95,
    ))


_register()
