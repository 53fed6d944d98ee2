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

Control plane per fetched chunk: a ``have`` poll (bitfield exchange), a
``fetch`` RPC whose handler starts the bulk transfer and replies once the
last byte (plus propagation) has arrived, and local bookkeeping for
availability counts.  Uploaders cap concurrent uploads (``max_uploads``,
BitTorrent's unchoke slots); saturated peers answer ``busy`` and the
requester moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from repro.apps import harness
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef
from repro.net.bwalloc import BULK


@dataclass
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
    chunk; ``fetch_concurrency`` — parallel download loops per node;
    ``max_uploads`` — concurrent upload slots (unchoke limit);
    ``poll_interval`` — idle wait between peer polls; ``fetch_timeout`` —
    RPC budget for one chunk (must cover the bulk transfer).

    The first instance of the job becomes the *seed* and starts complete.
    """

    label = "swarm"

    def _configure(self, options: dict) -> None:
        self.socket = self.instance.socket
        self.chunks = int(options.get("chunks", 24))
        self.chunk_size = int(options.get("chunk_size", 65536))
        self.fetch_concurrency = int(options.get("fetch_concurrency", 3))
        self.max_uploads = int(options.get("max_uploads", 4))
        self.poll_interval = float(options.get("poll_interval", 1.0))
        self.fetch_timeout = float(options.get("fetch_timeout", 60.0))
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
        for worker in range(self.fetch_concurrency):
            self.events.thread(self._fetch_loop,
                               name=f"{self.instance.context.name}.fetch{worker}")

    @property
    def complete(self) -> bool:
        return len(self.have) >= self.chunks

    # ------------------------------------------------------------ RPC handlers
    def _rpc_have(self) -> List[int]:
        return sorted(self.have)

    def _rpc_fetch(self, chunk: int, requester: dict) -> Generator:
        """Upload one chunk: bulk-transfer it, reply once it has arrived."""
        chunk = int(chunk)
        if chunk not in self.have:
            return {"ok": False, "reason": "missing"}
        if self._uploads >= self.max_uploads:
            self.stats.busy_rejections += 1
            return {"ok": False, "reason": "busy"}
        self._uploads += 1
        try:
            destination = NodeRef.coerce(requester)
            yield self.socket.transfer(destination, self.chunk_size,
                                       priority=BULK)
            self.stats.chunks_uploaded += 1
            return {"ok": True}
        finally:
            self._uploads -= 1

    # ------------------------------------------------------------ download side
    def _fetch_loop(self) -> Generator:
        """Swarm until complete: poll a random peer, fetch a missing chunk."""
        while not self.complete:
            peer = self._pick_member()
            if peer is None:
                yield self.poll_interval
                continue
            try:
                self.stats.have_polls += 1
                remote_have = yield self.rpc.call(peer, "have",
                                                  timeout=3.0, retries=0)
            except RpcError:
                yield self.poll_interval * 0.5
                continue
            remote_have = set(int(c) for c in remote_have)
            for chunk in remote_have:
                self.availability[chunk] = self.availability.get(chunk, 0) + 1
            wanted = sorted(remote_have - self.have - self._pending)
            if not wanted:
                yield self.poll_interval * 0.5
                continue
            chunk = self._pick_chunk(wanted)
            self._pending.add(chunk)
            try:
                reply = yield self.rpc.call(peer, "fetch", chunk, self.me,
                                            timeout=self.fetch_timeout, retries=0)
            except RpcError:
                self.stats.fetch_failures += 1
                continue
            finally:
                self._pending.discard(chunk)
            if not reply.get("ok"):
                if reply.get("reason") == "busy":
                    yield self.poll_interval * 0.25
                continue
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
#: gentler than the DHT scripts: the swarm must keep every chunk alive, so
#: churn starts once the file has had time to spread beyond the seed
DEFAULT_CHURN_SCRIPT = """\
at 120s crash 5%
from 150s to 240s every 30s replace 5%
"""


def run_dissemination_scenario(config: harness.RunConfig, *, chunks: int = 24,
                               chunk_size: int = 65536) -> dict:
    """Run the chunk-swarming workload and return the report dict.

    Every non-seed node is one measured operation: its latency is the time
    from going live to holding all ``chunks`` chunks, and it is *correct*
    when it completed within the horizon.  The horizon scales with the
    churn window plus a settle period so churned-in nodes get their chance.
    """
    from repro.sim.process import Process

    deployment = harness.deploy(
        "dissemination", swarm_factory(), config,
        options={"chunks": chunks, "chunk_size": chunk_size},
        default_churn_script=DEFAULT_CHURN_SCRIPT)
    sim, job = deployment.sim, deployment.job

    horizon = deployment.measure_start + max(120.0, 0.02 * chunks * config.nodes)

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
    harness.drain(deployment, driver, horizon)

    apps = [a for a in harness.joined_apps(job) if not a.is_seed]
    seeds = [a for a in harness.joined_apps(job) if a.is_seed]
    results: List[harness.OpResult] = []
    for index, app in enumerate(apps):
        done = app.complete and app.completed_at is not None
        latency = (app.completed_at - app.started_at) if done else sim.now - app.started_at
        results.append(harness.OpResult(
            key=index, started_at=app.started_at, latency=latency,
            hops=len(app.providers), completed=done, correct=done))

    report = harness.base_report("dissemination", deployment)
    report["measured"] = harness.summarise(results)
    if not results:
        # Seed-only deployment (nodes=1): nothing to download is vacuous
        # success, not a failed swarm.
        report["measured"]["success_rate"] = 1.0
    fetched = sum(a.stats.chunks_fetched for a in apps)
    uploaded = sum(a.stats.chunks_uploaded for a in apps + seeds)
    report["workload"] = {
        "chunks": chunks,
        "chunk_size": chunk_size,
        "file_bytes": chunks * chunk_size,
        "seeds": len(seeds),
        "downloaders": len(apps),
        "chunks_fetched": fetched,
        "chunks_uploaded": uploaded,
        "seed_uploads": sum(a.stats.chunks_uploaded for a in seeds),
        "fetch_failures": sum(a.stats.fetch_failures for a in apps),
        "busy_rejections": sum(a.stats.busy_rejections for a in apps + seeds),
        "transfers_started": deployment.network.stats.transfers_started,
        "transfers_completed": deployment.network.bandwidth.completed,
    }
    report["cdf_samples_ms"] = sorted(
        round(1000.0 * r.latency, 3) for r in results if r.completed)
    return report


def _register() -> None:
    from repro.apps import registry

    def _add_arguments(parser) -> None:
        parser.add_argument("--chunks", type=int, default=24,
                            help="chunks in the disseminated file")
        parser.add_argument("--chunk-size", type=int, default=65536,
                            help="bytes per chunk (drives the bandwidth model)")

    registry.register(registry.ScenarioSpec(
        name="dissemination",
        help="BitTorrent-style chunk swarming over the bandwidth model",
        runner=run_dissemination_scenario,
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        add_arguments=_add_arguments,
        make_kwargs=lambda args: {"chunks": args.chunks,
                                  "chunk_size": args.chunk_size},
        ops_param=None,
        ops_label="download",
        default_min_success=0.95,
        extra_report_lines=["seeds", "downloaders", "chunks_fetched",
                            "seed_uploads", "transfers_completed"],
    ))


_register()
