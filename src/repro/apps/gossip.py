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
from repro.sim.process import Process
from repro.sim.rng import substream

#: descriptors exchanged per Cyclon shuffle
SHUFFLE_SIZE = 4
#: the timeout (seconds) of every gossip RPC, sent once
HOP_TIMEOUT = 1.5
#: the periods (seconds) of the Cyclon shuffle and of the anti-entropy pull
SHUFFLE_INTERVAL = 4.0
AE_INTERVAL = 6.0


@dataclass(slots=True)
class DeliveryRecord:
    """When (and how) one message reached this node."""

    received_at: float
    hops: int
    via: str  # "publish" | "push" | "anti-entropy"


class GossipNode(harness.OverlayNode):
    """One gossip node, bound to one runtime instance.

    Options: ``view_size`` — Cyclon partial-view capacity; ``fanout`` —
    eager-push degree.  The membership and anti-entropy periods are
    :data:`SHUFFLE_INTERVAL` and :data:`AE_INTERVAL`.
    """

    __slots__ = ("view_size", "fanout", "view", "store")

    label = "gossip"
    # Cyclon has no founder state: whoever finds the directory empty (the first
    # instance, or the first one back after everyone died) starts alone, at once.
    founds_when_empty = True

    def _configure(self, options: dict) -> None:
        self.view_size = int(options.get("view_size", 8))
        self.fanout = int(options.get("fanout", 3))
        #: Cyclon partial view: peer -> age (incremented every shuffle round)
        self.view: Dict[Tuple[str, int], List] = {}  # key -> [NodeRef, age]
        #: message id -> delivery record
        self.store: Dict[str, DeliveryRecord] = {}

    # -------------------------------------------------------------- lifecycle
    def _go_live(self) -> None:
        seeds = self.members.without(self.me)
        for seed in self._sample(seeds, min(self.view_size // 2 + 1, len(seeds))):
            self._view_add(seed, age=0)
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._shuffle, SHUFFLE_INTERVAL,
                             jitter=SHUFFLE_INTERVAL * 0.25)
        self.events.periodic(self._anti_entropy, AE_INTERVAL,
                             jitter=AE_INTERVAL * 0.25)
        self.log.info(f"gossip node {self.me} live (view={len(self.view)})")

    # ----------------------------------------------------------- membership
    def _shuffle(self) -> Generator:
        """One Cyclon round: exchange descriptor subsets with the oldest peer."""
        if not self.view:
            self._reseed()
            if not self.view:
                return
        for entry in self.view.values():
            entry[1] += 1
        peer_key = max(self.view, key=lambda k: (self.view[k][1], k))
        peer = self.view[peer_key][0]
        others = [entry for key, entry in sorted(self.view.items()) if key != peer_key]
        sent = self._sample(others, min(SHUFFLE_SIZE - 1, len(others)))
        payload = ([{"node": self.me, "age": 0}]
                   + [{"node": entry[0], "age": entry[1]} for entry in sent])
        # The shuffled-out peer leaves the view whatever happens: Cyclon's
        # implicit failure detector (a dead peer never comes back).
        del self.view[peer_key]
        try:
            reply = yield self.rpc.call(peer, "shuffle", payload,
                                        timeout=HOP_TIMEOUT, retries=0)
        except RpcError:
            return
        self._merge_view(reply, sent_away=[entry[0] for entry in sent])

    def _rpc_shuffle(self, entries: list) -> list:
        """Answer a shuffle: return our own subset, merge what was offered."""
        pool = [entry for _key, entry in sorted(self.view.items())]
        sent = self._sample(pool, min(SHUFFLE_SIZE, len(pool)))
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
            return False
        self.store[message_id] = DeliveryRecord(self.events.sim.now, hops, via)
        for peer in self._sample(self._view_nodes(), self.fanout):
            self.rpc.a_call(peer, "push", message_id, hops + 1,
                            timeout=HOP_TIMEOUT, retries=0)
        return True

    def _rpc_push(self, message_id: str, hops: int) -> bool:
        return self._deliver(str(message_id), int(hops), via="push")

    # ---------------------------------------------------------- anti-entropy
    def _anti_entropy(self) -> Generator:
        """Pull message ids a random peer has that we don't."""
        peers = self._view_nodes()
        if not peers:
            return
        peer = self._rng.choice(peers)
        try:
            digest = yield self.rpc.call(peer, "ae_digest",
                                         timeout=HOP_TIMEOUT, retries=0)
            missing = sorted(set(digest) - set(self.store))
            if not missing:
                return
            found = yield self.rpc.call(peer, "ae_fetch", missing,
                                        timeout=HOP_TIMEOUT, retries=0)
        except RpcError:
            self._note_dead(peer)
            return
        for message_id, hops in sorted(found.items()):
            self._deliver(str(message_id), int(hops) + 1, via="anti-entropy")

    def _rpc_ae_digest(self) -> List[str]:
        return sorted(self.store)

    def _rpc_ae_fetch(self, message_ids: list) -> Dict[str, int]:
        return {m: self.store[m].hops for m in message_ids if m in self.store}

    def _note_dead(self, node: NodeRef) -> None:
        self.view.pop((node.ip, node.port), None)


gossip_factory = GossipNode.factory


# ----------------------------------------------------------------- scenario
class GossipScenario(harness.Scenario):
    """The epidemic-broadcast workload.

    ``broadcasts`` messages are published from random live nodes once churn
    has finished and the membership re-converged; each message is evaluated
    ``eval_window`` seconds after the last publication: a broadcast counts
    as *correct* when every live member delivered it, its latency is the
    time to full coverage, and its hop count is the longest push chain.
    """

    name = "gossip"
    help = "Cyclon membership + anti-entropy epidemic broadcast"
    ops_label = "broadcast"
    report_lines = ("delivery_ratio_mean", "delivery_ratio_min")
    params = (("broadcasts", 100, "measured broadcasts once membership re-converges"),
              ("fanout", 3, "eager-push degree per fresh delivery"),
              ("view_size", 8, "Cyclon partial-view capacity"))
    #: seconds between publications, and from the last one to the evaluation
    spacing = 1.0
    eval_window = 30.0

    def app(self) -> tuple:
        return gossip_factory(), {"fanout": self.fanout, "view_size": self.view_size}

    def start(self, deployment: harness.Deployment) -> tuple:
        sim, job = deployment.sim, deployment.job
        broadcasts = harness.scaled_ops(self.broadcasts, self.config.duration)
        rng = substream(self.config.seed, "workload")
        self.published: List[Tuple[str, float]] = []

        def _publish_stream() -> Generator:
            for index in range(broadcasts):
                apps = harness.joined_apps(job)
                if not apps:
                    yield self.spacing
                    continue
                origin = rng.choice(sorted(apps, key=lambda a: (a.me.ip, a.me.port)))
                message_id = f"m{index:05d}"
                origin.publish(message_id)
                self.published.append((message_id, sim.now))
                yield self.spacing

        Process(sim, _publish_stream(), name="workload.publish").start(
            delay=deployment.measure_start)
        return None, (deployment.measure_start + broadcasts * self.spacing
                      + self.eval_window)

    def sections(self, deployment: harness.Deployment) -> dict:
        # Coverage over the members that are live (and joined) now — churn
        # ends before the measured phase, so this is the stable population.
        apps = harness.joined_apps(deployment.job)
        results: List[harness.OpResult] = []
        delivery_latencies_ms: List[float] = []
        ratios: List[float] = []
        for index, (message_id, published_at) in enumerate(self.published):
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
        by_via = {"publish": 0, "push": 0, "anti-entropy": 0}
        for app in apps:
            for record in app.store.values():
                by_via[record.via] = by_via.get(record.via, 0) + 1
        return {
            "measured": harness.summarise(results),
            "workload": {
                "broadcasts": len(self.published),
                "delivery_ratio_mean": (sum(ratios) / len(ratios)) if ratios else 0.0,
                "delivery_ratio_min": min(ratios) if ratios else 0.0,
                "deliveries_by_via": by_via,
                "fanout": self.fanout,
                "view_size": self.view_size,
            },
            "cdf_samples_ms": sorted(round(v, 3) for v in delivery_latencies_ms),
        }


run_gossip_scenario = GossipScenario.runner
