"""Epidemic dissemination: Cyclon membership + anti-entropy broadcast.

The paper's evaluation includes an epidemic diffusion protocol; this module
reproduces that workload class with the two classic layers:

* **Cyclon-style membership**: each node keeps a small partial view of aged
  peer descriptors and periodically *shuffles* a subset with the oldest peer
  in its view, so views stay fresh and uniformly random even under churn.
* **Epidemic broadcast**: a published message is eagerly *pushed* to
  ``fanout`` random view peers (infect-and-die: a node forwards only on
  first receipt), and a periodic *anti-entropy* exchange pulls any message
  ids a random peer has that we don't — push gets the message to almost
  everyone in O(log N) rounds, anti-entropy closes the stragglers, so
  delivery converges to 100% even across churned-in nodes.

The scenario measures, per broadcast, the delivery ratio over live members
and the time/hop count ("rounds") to full coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence, Tuple

from repro.apps import harness
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef
from repro.sim.rng import substream


@dataclass
class GossipStats:
    """Per-node counters (aggregated by the scenario report)."""

    shuffles_started: int = 0
    shuffles_answered: int = 0
    shuffle_failures: int = 0
    pushes_sent: int = 0
    duplicates_ignored: int = 0
    anti_entropy_rounds: int = 0
    anti_entropy_recovered: int = 0


@dataclass
class DeliveryRecord:
    """When (and how) one message reached this node."""

    received_at: float
    hops: int
    via: str  # "publish" | "push" | "anti-entropy"


class GossipNode(harness.OverlayNode):
    """One gossip node, bound to one runtime instance.

    Options: ``view_size`` — Cyclon partial-view capacity; ``shuffle_size``
    — descriptors exchanged per shuffle; ``shuffle_interval`` /
    ``ae_interval`` — membership and anti-entropy periods; ``fanout`` —
    eager-push degree; ``hop_timeout`` — RPC timeout.
    """

    label = "gossip"
    # Cyclon has no founder state: whoever finds the directory empty (the first
    # instance, or the first one back after everyone died) starts alone, at once.
    founds_when_empty = True

    def _configure(self, options: dict) -> None:
        self.view_size = int(options.get("view_size", 8))
        self.shuffle_size = int(options.get("shuffle_size", 4))
        self.shuffle_interval = float(options.get("shuffle_interval", 4.0))
        self.ae_interval = float(options.get("ae_interval", 6.0))
        self.fanout = int(options.get("fanout", 3))
        self.hop_timeout = float(options.get("hop_timeout", 1.5))
        #: Cyclon partial view: peer -> age (incremented every shuffle round)
        self.view: Dict[Tuple[str, int], List] = {}  # key -> [NodeRef, age]
        #: message id -> delivery record
        self.store: Dict[str, DeliveryRecord] = {}
        self.stats = GossipStats()

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        seeds = self.members.without(self.me)
        for seed in self._sample(seeds, min(self.view_size // 2 + 1, len(seeds))):
            self._view_add(seed, age=0)
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._shuffle, self.shuffle_interval,
                             jitter=self.shuffle_interval * 0.25)
        self.events.periodic(self._anti_entropy, self.ae_interval,
                             jitter=self.ae_interval * 0.25)
        self.log.info(f"gossip node {self.me} live (view={len(self.view)})")

    # ----------------------------------------------------------- membership
    def _shuffle(self) -> Generator:
        """One Cyclon round: exchange descriptor subsets with the oldest peer."""
        if not self.view:
            self._reseed()
            if not self.view:
                return
        self.stats.shuffles_started += 1
        for entry in self.view.values():
            entry[1] += 1
        peer_key = max(self.view, key=lambda k: (self.view[k][1], k))
        peer = self.view[peer_key][0]
        others = [entry for key, entry in sorted(self.view.items()) if key != peer_key]
        sent = self._sample(others, min(self.shuffle_size - 1, len(others)))
        payload = ([{"node": self.me, "age": 0}]
                   + [{"node": entry[0], "age": entry[1]} for entry in sent])
        # The shuffled-out peer leaves the view whatever happens: Cyclon's
        # implicit failure detector (a dead peer never comes back).
        del self.view[peer_key]
        try:
            reply = yield self.rpc.call(peer, "shuffle", payload,
                                        timeout=self.hop_timeout, retries=0)
        except RpcError:
            self.stats.shuffle_failures += 1
            return
        self._merge_view(reply, sent_away=[entry[0] for entry in sent])

    def _rpc_shuffle(self, entries: list) -> list:
        """Answer a shuffle: return our own subset, merge what was offered."""
        self.stats.shuffles_answered += 1
        pool = [entry for _key, entry in sorted(self.view.items())]
        sent = self._sample(pool, min(self.shuffle_size, len(pool)))
        reply = [{"node": entry[0], "age": entry[1]} for entry in sent]
        self._merge_view(entries, sent_away=[entry[0] for entry in sent])
        return reply

    def _merge_view(self, entries: list, sent_away: List[NodeRef]) -> None:
        """Cyclon merge: fill empty slots, then replace what we sent away."""
        replaceable = [(n.ip, n.port) for n in sent_away]
        for item in entries:
            node = NodeRef.coerce(item["node"])
            age = int(item.get("age", 0))
            if node == self.me:
                continue
            key = (node.ip, node.port)
            if key in self.view:
                self.view[key][1] = min(self.view[key][1], age)
                continue
            if len(self.view) < self.view_size:
                self._view_add(node, age)
            elif replaceable:
                self.view.pop(replaceable.pop(0), None)
                self._view_add(node, age)
            else:
                # Replace the oldest descriptor (keeps the view fresh).
                oldest = max(self.view, key=lambda k: (self.view[k][1], k))
                if self.view[oldest][1] > age:
                    del self.view[oldest]
                    self._view_add(node, age)

    def _view_add(self, node: NodeRef, age: int) -> None:
        if node != self.me:
            self.view[(node.ip, node.port)] = [node, age]

    def _reseed(self) -> None:
        """Empty view (every peer churned away): restart from the member list."""
        members = self.members.without(self.me)
        for seed in self._sample(members, min(3, len(members))):
            self._view_add(seed, age=0)

    def _view_nodes(self) -> List[NodeRef]:
        return [entry[0] for _key, entry in sorted(self.view.items())]

    def _sample(self, pool: Sequence, count: int) -> list:
        if count <= 0 or not pool:
            return []
        return self._rng.sample(pool, min(count, len(pool)))

    # ------------------------------------------------------------- broadcast
    def publish(self, message_id: str) -> None:
        """Inject a new broadcast message at this node."""
        self._deliver(message_id, hops=0, via="publish")

    def _deliver(self, message_id: str, hops: int, via: str) -> bool:
        if message_id in self.store:
            self.stats.duplicates_ignored += 1
            return False
        self.store[message_id] = DeliveryRecord(self.events.sim.now, hops, via)
        for peer in self._sample(self._view_nodes(), self.fanout):
            self.stats.pushes_sent += 1
            self.rpc.a_call(peer, "push", message_id, hops + 1,
                            timeout=self.hop_timeout, retries=0)
        return True

    def _rpc_push(self, message_id: str, hops: int) -> bool:
        return self._deliver(str(message_id), int(hops), via="push")

    # ---------------------------------------------------------- anti-entropy
    def _anti_entropy(self) -> Generator:
        """Pull message ids a random peer has that we don't."""
        peers = self._view_nodes()
        if not peers:
            return
        self.stats.anti_entropy_rounds += 1
        peer = self._rng.choice(peers)
        try:
            digest = yield self.rpc.call(peer, "ae_digest",
                                         timeout=self.hop_timeout, retries=0)
            missing = sorted(set(digest) - set(self.store))
            if not missing:
                return
            found = yield self.rpc.call(peer, "ae_fetch", missing,
                                        timeout=self.hop_timeout, retries=0)
        except RpcError:
            self._note_dead(peer)
            return
        for message_id, hops in sorted(found.items()):
            if self._deliver(str(message_id), int(hops) + 1, via="anti-entropy"):
                self.stats.anti_entropy_recovered += 1

    def _rpc_ae_digest(self) -> List[str]:
        return sorted(self.store)

    def _rpc_ae_fetch(self, message_ids: list) -> Dict[str, int]:
        return {m: self.store[m].hops for m in message_ids if m in self.store}

    def _note_dead(self, node: NodeRef) -> None:
        self.view.pop((node.ip, node.port), None)


gossip_factory = GossipNode.factory


# ----------------------------------------------------------------- scenario
#: identical timeline to the DHT flagship scripts
DEFAULT_CHURN_SCRIPT = harness.FLAGSHIP_CHURN_SCRIPT


def run_gossip_scenario(config: harness.RunConfig, *, broadcasts: int = 100,
                        spacing: float = 1.0, eval_window: float = 30.0,
                        fanout: int = 3, view_size: int = 8) -> dict:
    """Run the epidemic-broadcast workload and return the report dict.

    ``broadcasts`` messages are published from random live nodes once churn
    has finished and the membership re-converged; each message is evaluated
    ``eval_window`` seconds after the last publication: a broadcast counts
    as *correct* when every live member delivered it, its latency is the
    time to full coverage, and its hop count is the longest push chain.
    """
    from repro.sim.process import Process

    broadcasts = harness.scaled_ops(broadcasts, config.duration)
    deployment = harness.deploy(
        "gossip", gossip_factory(), config,
        options={"fanout": fanout, "view_size": view_size},
        default_churn_script=DEFAULT_CHURN_SCRIPT)
    sim, job = deployment.sim, deployment.job

    published: List[Tuple[str, float]] = []
    rng = substream(config.seed, "workload")

    def _publish_stream() -> Generator:
        for index in range(broadcasts):
            apps = harness.joined_apps(job)
            if not apps:
                yield spacing
                continue
            origin = rng.choice(sorted(apps, key=lambda a: (a.me.ip, a.me.port)))
            message_id = f"m{index:05d}"
            origin.publish(message_id)
            published.append((message_id, sim.now))
            yield spacing

    driver = Process(sim, _publish_stream(), name="workload.publish")
    driver.start(delay=deployment.measure_start)
    horizon = deployment.measure_start + broadcasts * spacing + eval_window
    harness.drain(deployment, driver, horizon)
    sim.run(until=horizon)

    # Evaluate coverage over the members that are live (and joined) now —
    # churn ends before the measured phase, so this is the stable population.
    apps = harness.joined_apps(job)
    results: List[harness.OpResult] = []
    delivery_latencies_ms: List[float] = []
    ratios: List[float] = []
    for index, (message_id, published_at) in enumerate(published):
        records = [a.store[message_id] for a in apps if message_id in a.store]
        ratio = len(records) / len(apps) if apps else 0.0
        ratios.append(ratio)
        latencies = [r.received_at - published_at for r in records]
        delivery_latencies_ms.extend(1000.0 * value for value in latencies)
        covered = bool(apps) and len(records) == len(apps)
        results.append(harness.OpResult(
            key=index, started_at=published_at,
            latency=max(latencies) if latencies else 0.0,
            hops=max((r.hops for r in records), default=0),
            completed=bool(records), correct=covered))

    report = harness.base_report("gossip", deployment)
    report["measured"] = harness.summarise(results)
    by_via = {"publish": 0, "push": 0, "anti-entropy": 0}
    for app in apps:
        for record in app.store.values():
            by_via[record.via] = by_via.get(record.via, 0) + 1
    report["workload"] = {
        "broadcasts": len(published),
        "delivery_ratio_mean": (sum(ratios) / len(ratios)) if ratios else 0.0,
        "delivery_ratio_min": min(ratios) if ratios else 0.0,
        "deliveries_by_via": by_via,
        "fanout": fanout,
        "view_size": view_size,
    }
    report["cdf_samples_ms"] = sorted(round(v, 3) for v in delivery_latencies_ms)
    return report


def _register() -> None:
    from repro.apps import registry

    def _add_arguments(parser) -> None:
        parser.add_argument("--broadcasts", type=int, default=100,
                            help="measured broadcasts once membership re-converges")
        parser.add_argument("--fanout", type=int, default=3,
                            help="eager-push degree per fresh delivery")
        parser.add_argument("--view-size", type=int, default=8,
                            help="Cyclon partial-view capacity")

    registry.register(registry.ScenarioSpec(
        name="gossip",
        help="Cyclon membership + anti-entropy epidemic broadcast",
        runner=run_gossip_scenario,
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        add_arguments=_add_arguments,
        make_kwargs=lambda args: {"broadcasts": args.broadcasts,
                                  "fanout": args.fanout,
                                  "view_size": args.view_size},
        ops_param="broadcasts",
        ops_label="broadcast",
        default_min_success=0.95,
        extra_report_lines=["delivery_ratio_mean", "delivery_ratio_min"],
    ))


_register()
