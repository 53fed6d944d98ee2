"""Dissemination: chunk swarming drives the flow-level bandwidth model."""

import math

import pytest

from heap_kernel_reference import step
from repro.apps import dissemination
from repro.apps.dissemination import (
    CHUNKS_PER_FETCH, run_dissemination_scenario, swarm_factory)
from repro.apps.harness import RunConfig, deterministic_report_view
from repro.core.jobs import JobSpec
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator

CHUNKS = 8
CHUNK_SIZE = 32768
DELAY = 0.010  # one-way, every host pair


@pytest.fixture(autouse=True)
def _short_polls(monkeypatch):
    """The tests' download loops wait 0.5 s between idle polls."""
    monkeypatch.setattr(dissemination, "POLL_INTERVAL", 0.5)


def _one_download_loop(monkeypatch):
    monkeypatch.setattr(dissemination, "FETCH_CONCURRENCY", 1)


def _deploy(nodes=8, seed=0, churn_script=None, link_bps=10_000_000.0, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(DELAY), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        ip = f"10.0.0.{i + 1}"
        controller.register_daemon(
            Splayd(sim, network, ip, SplaydLimits(max_instances=3)))
        network.bandwidth.set_capacity(ip, link_bps, link_bps)
    spec = JobSpec(
        name="swarm",
        app_factory=swarm_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"chunks": CHUNKS, "chunk_size": CHUNK_SIZE,
                 "join_window": 5.0, **options},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


def test_first_instance_seeds_and_everyone_completes():
    sim, _controller, job = _deploy(nodes=8)
    sim.run(until=200.0)
    apps = _apps(job)
    seeds = [a for a in apps if a.is_seed]
    assert len(seeds) == 1
    assert all(a.complete for a in apps), (
        [(str(a.me), len(a.have)) for a in apps if not a.complete])
    for app in apps:
        if not app.is_seed:
            assert app.completed_at is not None and app.completed_at > app.started_at
            assert app.stats.chunks_fetched == CHUNKS


def test_chunks_travel_through_the_bandwidth_model():
    sim, _controller, job = _deploy(nodes=6)
    network = next(iter(job.instances)).daemon.network
    sizes = []
    transfer = network.transfer

    def record_transfer(src, dst, nbytes):
        sizes.append(nbytes)
        return transfer(src, dst, nbytes)

    network.transfer = record_transfer
    sim.run(until=200.0)
    apps = _apps(job)
    downloaders = [a for a in apps if not a.is_seed]
    fetched = sum(a.stats.chunks_fetched for a in downloaders)
    assert fetched == CHUNKS * len(downloaders)
    # Every fetched chunk's bytes are one bulk transfer's, not a control
    # message's, and no chunk is sent twice.
    assert sum(sizes) == fetched * CHUNK_SIZE
    assert sum(a.stats.chunks_uploaded for a in apps) == fetched
    assert all(0 < size <= CHUNKS_PER_FETCH * CHUNK_SIZE for size in sizes)
    assert network.stats.transfers_started == network.bandwidth.completed == len(sizes)


def test_constrained_links_slow_the_swarm_down():
    def completion_span(link_bps):
        sim, _controller, job = _deploy(nodes=6, link_bps=link_bps)
        sim.run(until=400.0)
        apps = [a for a in _apps(job) if not a.is_seed]
        assert apps and all(a.complete for a in apps)
        return max(a.completed_at - a.started_at for a in apps)

    fast = completion_span(50_000_000.0)
    slow = completion_span(500_000.0)
    assert slow > fast, (slow, fast)


def test_a_peer_that_served_a_chunk_serves_the_next_without_a_poll():
    sim, _controller, job = _deploy(nodes=2)
    sim.run(until=100.0)
    [downloader] = [a for a in _apps(job) if not a.is_seed]
    assert downloader.complete and downloader.stats.chunks_fetched == CHUNKS
    # Each loop polls the seed once, then takes chunk after chunk from the
    # bitfield the fetch replies carry.
    assert 0 < downloader.stats.have_polls < CHUNKS


def test_a_fetched_chunk_lands_two_one_way_delays_after_its_request(monkeypatch):
    """Request out, last byte of the batch back with the reply: not a third delay."""
    _one_download_loop(monkeypatch)
    sim, _controller, job = _deploy(nodes=2)
    network = next(iter(job.instances)).daemon.network
    while len(job.live_instances()) < 2:
        step(sim)
    [downloader] = [i.app for i in job.live_instances() if not i.app.is_seed]
    requested, landed = [], []
    send = network.send

    def record_fetch_requests(src, dst, payload, size):
        if isinstance(payload, dict) and payload.get("method") == "fetch":
            requested.append((sim.now, list(payload["args"][0])))
        send(src, dst, payload, size)

    class Landing(set):
        def add(self, chunk):
            landed.append((sim.now, chunk))
            super().add(chunk)

    network.send = record_fetch_requests
    downloader.have = Landing()
    sim.run(until=100.0)
    assert downloader.complete
    assert [chunk for _sent_at, batch in requested for chunk in batch] == [
        chunk for _landed_at, chunk in landed]
    assert len(requested) == math.ceil(CHUNKS / CHUNKS_PER_FETCH)
    arrivals = iter(landed_at for landed_at, _chunk in landed)
    for sent_at, batch in requested:
        assert 0 < len(batch) <= CHUNKS_PER_FETCH
        [landed_at] = {next(arrivals) for _chunk in batch}  # one instant per batch
        transfer = 8 * len(batch) * CHUNK_SIZE / 10_000_000.0
        # What remains is the request's and the reply's own transmission
        # time over the 10 Mbps links, a fraction of a millisecond.
        extra = landed_at - sent_at - 2 * DELAY - transfer
        assert 0 < extra < DELAY / 10, extra


def test_a_fetch_naming_a_chunk_the_uploader_lacks_is_refused_whole(monkeypatch):
    _one_download_loop(monkeypatch)
    sim, _controller, job = _deploy(nodes=2)
    network = next(iter(job.instances)).daemon.network
    while len(_apps(job)) < 2:
        step(sim)
    [seed] = [a for a in _apps(job) if a.is_seed]
    [downloader] = [a for a in _apps(job) if not a.is_seed]
    # The seed lacks a chunk it still advertises, as a replacement at a
    # reused endpoint would behind its predecessor's bitfield.
    lacked = CHUNKS - 1
    seed.have.discard(lacked)
    seed.rpc.register("have", lambda: list(range(CHUNKS)))
    uploads, pending = [], []
    upload = seed._rpc_fetch

    def record_upload(chunks, requester):
        started = network.stats.transfers_started
        reply = yield from upload(chunks, requester)
        uploads.append((list(chunks), reply,
                        network.stats.transfers_started - started, seed._uploads))
        return reply

    send = network.send

    def record_pending(src, dst, payload, size):
        if isinstance(payload, dict) and payload.get("method") in ("have", "fetch"):
            pending.append((payload["method"], set(downloader._pending),
                            set(payload["args"][0]) if payload["method"] == "fetch" else set()))
        send(src, dst, payload, size)

    seed.rpc.register("fetch", record_upload)
    network.send = record_pending
    sim.run(until=20.0)
    refused = [(chunks, started, slots) for chunks, reply, started, slots in uploads
               if reply == {"ok": False, "reason": "missing"}]
    served = [(chunks, started) for chunks, reply, started, _slots in uploads
              if reply["ok"]]
    assert len(refused) + len(served) == len(uploads)
    assert any(len(chunks) > 1 for chunks, _started, _slots in refused)
    # Refused whole: no transfer, no slot held, and none of its chunks lands.
    assert all(lacked in chunks and started == 0 and slots == 0
               for chunks, started, slots in refused)
    assert all(lacked not in chunks and started == 1 for chunks, started in served)
    assert (sum(len(chunks) for chunks, _started in served)
            == downloader.stats.chunks_fetched == CHUNKS - 1)
    assert downloader.have == set(range(CHUNKS)) - {lacked}
    # The requester releases every batch: each fetch is pending alone, and
    # nothing is pending when the loop polls again.
    assert all(held == batch for method, held, batch in pending if method == "fetch")
    assert all(not held for method, held, _batch in pending if method == "have")
    assert seed.stats.have_polls == 0 and seed.stats.busy_rejections == 0


def test_a_busy_reply_sends_the_next_fetch_after_a_fresh_poll(monkeypatch):
    _one_download_loop(monkeypatch)
    monkeypatch.setattr(dissemination, "MAX_UPLOADS", 0)
    sim, _controller, job = _deploy(nodes=2)
    sim.run(until=30.0)
    [seed] = [a for a in _apps(job) if a.is_seed]
    [downloader] = [a for a in _apps(job) if not a.is_seed]
    busy = seed.stats.busy_rejections
    assert busy >= 10 and downloader.stats.chunks_fetched == 0
    # poll, busy fetch, poll, busy fetch, ...: the run may stop between the
    # last poll and its fetch.
    assert downloader.stats.have_polls - busy in (0, 1)


def test_swarm_survives_crash_churn():
    sim, _controller, job = _deploy(nodes=8, churn_script="at 30s crash 25%\n")
    sim.run(until=300.0)
    apps = _apps(job)
    assert job.live_count == 6
    assert all(a.complete for a in apps)


def test_scenario_runner_reports_completion_and_is_deterministic():
    config = RunConfig(nodes=10, hosts=5, seed=2, join_window=10.0, settle=20.0)
    first = run_dissemination_scenario(config, chunks=6, chunk_size=16384)
    second = run_dissemination_scenario(config, chunks=6, chunk_size=16384)
    assert (deterministic_report_view(first)
            == deterministic_report_view(second))
    measured = first["measured"]
    assert measured["issued"] == 9  # every downloader (the seed is excluded)
    assert measured["success_rate"] == 1.0
    assert first["workload"]["chunks_uploaded"] == 9 * 6
    assert first["workload"]["transfers_completed"] >= 9 * math.ceil(6 / CHUNKS_PER_FETCH)
    assert first["cdf_samples_ms"] == sorted(first["cdf_samples_ms"])
