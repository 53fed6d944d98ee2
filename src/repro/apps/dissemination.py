"""BitTorrent-style content dissemination over the flow-level bandwidth model.

The paper's evaluation runs a BitTorrent dissemination experiment; this
module reproduces the workload shape: one (or more) seed nodes start with a
file of fixed-size chunks, every other node swarms it down by exchanging
chunk bitfields with random peers and fetching missing chunks
*rarest-first*.  Chunk payloads do **not** travel as control messages —
each upload drives :meth:`RestrictedSocket.transfer`, i.e. the max-min fair
flow-level :class:`~repro.net.bandwidth.BandwidthModel`, so download times
reflect contended 10 Mbps access links rather than per-message latency.
This makes the swarm the first end-to-end consumer of the bandwidth model.

Control plane per fetch: one ``fetch`` RPC names up to
:data:`CHUNKS_PER_FETCH` chunks, each picked rarest-first; its handler sends
them all as one bulk transfer and replies, with the uploader's bitfield, as
the last byte leaves its uplink: the reply leaves with the last byte and
arrives with it, so a batch costs one round trip plus its transfer.  As in
BitTorrent, where a peer sends its bitfield once per connection and then
keeps requesting pieces, a download loop polls a random peer with ``have``
only when it has no peer: it keeps fetching from the peer that just served
it, choosing the next batch from the bitfield that peer's reply carried,
until that peer has nothing left to offer or answers ``busy``, ``missing``
or not at all; any of those releases the whole batch.  Bitfields only grow,
so a remembered one never offers a chunk its peer lacks (a replacement at a
reused endpoint refuses a batch naming any chunk it lacks with ``missing``).
Uploaders cap concurrent uploads (:data:`MAX_UPLOADS`, BitTorrent's unchoke
slots); saturated peers answer ``busy`` and the requester moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from repro.apps import harness
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef
from repro.sim.process import Process

#: chunks one ``fetch`` asks for: the uploader sends them as one transfer, so
#: a round trip is paid per batch, not per chunk
CHUNKS_PER_FETCH = 4
#: the RPC budget (seconds) of one fetch: it must cover the bulk transfer of
#: up to :data:`CHUNKS_PER_FETCH` chunks
FETCH_TIMEOUT = 60.0
#: parallel download loops per node
FETCH_CONCURRENCY = 3
#: concurrent upload slots per node (the unchoke limit)
MAX_UPLOADS = 4
#: the idle wait (seconds) between peer polls
POLL_INTERVAL = 1.0


@dataclass(slots=True)
class SwarmStats:
    """Per-node counters (aggregated by the scenario report)."""

    chunks_fetched: int = 0
    chunks_uploaded: int = 0
    fetch_failures: int = 0
    busy_rejections: int = 0
    have_polls: int = 0


class SwarmNode(harness.OverlayNode):
    """One swarm participant, bound to one runtime instance.

    Options: ``chunks`` — chunks in the file; ``chunk_size`` — bytes per
    chunk.  Download loops, upload slots and the poll wait are
    :data:`FETCH_CONCURRENCY`, :data:`MAX_UPLOADS` and :data:`POLL_INTERVAL`.

    The first instance of the job becomes the *seed* and starts complete.
    """

    __slots__ = ("socket", "chunks", "chunk_size", "have", "availability",
                 "_pending", "_uploads", "started_at", "completed_at", "is_seed",
                 "providers", "stats")

    label = "swarm"

    def _configure(self, options: dict) -> None:
        self.socket = self.instance.socket
        self.chunks = int(options.get("chunks", 24))
        self.chunk_size = int(options.get("chunk_size", 65536))
        self.have: Set[int] = set()
        #: chunk index -> how many peers were seen advertising it
        self.availability: Dict[int, int] = {}
        self._pending: Set[int] = set()
        self._uploads = 0
        self.started_at = self.events.sim.now
        self.completed_at: Optional[float] = None
        self.is_seed = False
        self.providers: Set[tuple] = set()
        self.stats = SwarmStats()

    # -------------------------------------------------------------- lifecycle
    def _found(self) -> None:
        self.is_seed = True
        self.have = set(range(self.chunks))
        self.completed_at = self.events.sim.now
        self._go_live()

    def _go_live(self) -> None:
        self.members.add(self.me)
        self.joined = True
        # The measured download time starts when the fetch workers do, not at
        # instance creation — the join stagger is not download latency.
        self.started_at = self.events.sim.now
        for worker in range(FETCH_CONCURRENCY):
            self.events.thread(self._fetch_loop,
                               name=f"{self.instance.context.name}.fetch{worker}")

    @property
    def complete(self) -> bool:
        return len(self.have) >= self.chunks

    # ------------------------------------------------------------ RPC handlers
    def _rpc_have(self) -> List[int]:
        return sorted(self.have)

    def _rpc_fetch(self, chunks: List[int], requester: dict) -> Generator:
        """Upload a batch as one bulk transfer, reply with our bitfield as its last byte leaves."""
        chunks = [int(chunk) for chunk in chunks]
        if not self.have.issuperset(chunks):
            return {"ok": False, "reason": "missing"}
        if self._uploads >= MAX_UPLOADS:
            self.stats.busy_rejections += 1
            return {"ok": False, "reason": "busy"}
        self._uploads += 1
        try:
            destination = NodeRef.coerce(requester)
            yield self.socket.transfer(destination, len(chunks) * self.chunk_size)
            self.stats.chunks_uploaded += len(chunks)
            # A fresh list: replies travel by reference.
            return {"ok": True, "have": sorted(self.have)}
        finally:
            self._uploads -= 1

    # ------------------------------------------------------------ download side
    def _fetch_loop(self) -> Generator:
        """Swarm until complete: poll a random peer, fetch from it while it serves."""
        peer: Optional[NodeRef] = None
        remote_have: Set[int] = set()
        while not self.complete:
            if peer is None:
                peer = self._pick_member()
                if peer is None:
                    yield POLL_INTERVAL
                    continue
                try:
                    self.stats.have_polls += 1
                    advertised = yield self.rpc.call(peer, "have", timeout=3.0, retries=0)
                except RpcError:
                    peer = None
                    yield POLL_INTERVAL * 0.5
                    continue
                # Availability counts what peers advertised to a poll only.
                for chunk in advertised:
                    self.availability[chunk] = self.availability.get(chunk, 0) + 1
                remote_have = set(advertised)
            wanted = sorted(remote_have - self.have - self._pending)
            if not wanted:
                peer = None
                yield POLL_INTERVAL * 0.5
                continue
            batch = []
            while wanted and len(batch) < CHUNKS_PER_FETCH:
                chunk = self._pick_chunk(wanted)
                wanted.remove(chunk)
                batch.append(chunk)
            self._pending.update(batch)
            try:
                reply = yield self.rpc.call(peer, "fetch", batch, self.me,
                                            timeout=FETCH_TIMEOUT, retries=0)
            except RpcError:
                self.stats.fetch_failures += 1
                peer = None
                continue
            finally:
                self._pending.difference_update(batch)
            if not reply.get("ok"):
                peer = None
                if reply.get("reason") == "busy":
                    yield POLL_INTERVAL * 0.25
                continue
            remote_have = set(reply["have"])
            for chunk in batch:
                if chunk not in self.have:
                    self.have.add(chunk)
                    self.stats.chunks_fetched += 1
                    self.providers.add((peer.ip, peer.port))
            if self.complete and self.completed_at is None:
                self.completed_at = self.events.sim.now
                self.log.info(f"swarm node {self.me} complete "
                              f"({self.chunks} chunks)")

    def _pick_chunk(self, wanted: List[int]) -> int:
        """Rarest-first among what the peer offers (ties broken randomly)."""
        rarest = min(self.availability.get(c, 0) for c in wanted)
        pool = [c for c in wanted if self.availability.get(c, 0) == rarest]
        return self._rng.choice(pool)


swarm_factory = SwarmNode.factory


# ----------------------------------------------------------------- scenario
class DisseminationScenario(harness.Scenario):
    """The chunk-swarming workload.

    Every non-seed node is one measured operation: its latency is the time
    from going live to holding all ``chunks`` chunks, and it is *correct*
    when it completed within the horizon.  The horizon scales with the
    churn window plus a settle period so churned-in nodes get their chance.
    """

    name = "dissemination"
    help = "BitTorrent-style chunk swarming over the bandwidth model"
    ops_label = "download"
    report_lines = ("seeds", "downloaders", "chunks_fetched", "have_polls",
                    "seed_uploads", "transfers_completed")
    #: gentler than the DHT scripts: the swarm must keep every chunk alive,
    #: so churn starts once the file has had time to spread beyond the seed
    default_churn_script = """\
at 120s crash 5%
from 150s to 240s every 30s replace 5%
"""
    params = (("chunks", 24, "chunks in the disseminated file"),
              ("chunk_size", 65536, "bytes per chunk (drives the bandwidth model)"))

    def app(self) -> tuple:
        return swarm_factory(), {"chunks": self.chunks, "chunk_size": self.chunk_size}

    def start(self, deployment: harness.Deployment) -> tuple:
        sim, job = deployment.sim, deployment.job
        horizon = deployment.measure_start + max(120.0, 0.02 * self.chunks * self.config.nodes)

        def _wait_for_swarm() -> Generator:
            while sim.now < horizon:
                # Every live instance counts, joined or not: a churned-in node
                # still inside its join-stagger window must hold the sim open.
                apps = [i.app for i in job.live_instances() if i.app is not None]
                if apps and sim.now > deployment.churn_end and all(
                        a.joined and a.complete for a in apps):
                    return
                yield 5.0

        driver = Process(sim, _wait_for_swarm(), name="workload.swarm-wait")
        driver.start()
        return driver, horizon

    def sections(self, deployment: harness.Deployment) -> dict:
        now = deployment.sim.now
        joined = harness.joined_apps(deployment.job)
        apps = [a for a in joined if not a.is_seed]
        seeds = [a for a in joined if a.is_seed]
        results: List[harness.OpResult] = []
        for index, app in enumerate(apps):
            done = app.complete and app.completed_at is not None
            latency = (app.completed_at if done else now) - app.started_at
            results.append(harness.OpResult(
                key=index, started_at=app.started_at, latency=latency,
                hops=len(app.providers), completed=done, correct=done))
        measured = harness.summarise(results)
        if not results:
            # Seed-only deployment (nodes=1): nothing to download is vacuous
            # success, not a failed swarm.
            measured["success_rate"] = 1.0
        return {
            "measured": measured,
            "workload": {
                "chunks": self.chunks,
                "chunk_size": self.chunk_size,
                "file_bytes": self.chunks * self.chunk_size,
                "seeds": len(seeds),
                "downloaders": len(apps),
                "chunks_fetched": sum(a.stats.chunks_fetched for a in apps),
                "have_polls": sum(a.stats.have_polls for a in apps),
                "chunks_uploaded": sum(a.stats.chunks_uploaded for a in apps + seeds),
                "seed_uploads": sum(a.stats.chunks_uploaded for a in seeds),
                "fetch_failures": sum(a.stats.fetch_failures for a in apps),
                "busy_rejections": sum(a.stats.busy_rejections for a in apps + seeds),
                "transfers_started": deployment.network.stats.transfers_started,
                "transfers_completed": deployment.network.bandwidth.completed,
            },
            "cdf_samples_ms": sorted(round(1000.0 * r.latency, 3)
                                     for r in results if r.completed),
        }


run_dissemination_scenario = DisseminationScenario.runner
