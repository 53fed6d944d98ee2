"""Instance lifecycle: scan-free stop/reap tables that keep the list order.

``Job.instances`` and ``Splayd.instances`` are insertion-ordered keyed
tables.  Two properties are pinned here: a stop costs a constant number of
handle comparisons whatever the job size, and every table, view and status
the control plane derives from them is exactly what the list-with-removals
bookkeeping they replaced produced (the reference model below *is* that
bookkeeping, kept only in this file).
"""

import random

import pytest

from repro.core.jobs import JobSpec
from repro.net.network import Network
from repro.runtime import splayd as splayd_module
from repro.runtime.controller import Controller
from repro.runtime.splayd import Instance, Splayd, SplaydLimits
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer


def _world(seed, daemons, max_instances, shards=1):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed, shards=shards)
    for i in range(daemons):
        controller.register_daemon(Splayd(
            sim, network, f"10.0.0.{i + 1}",
            SplaydLimits(max_instances=max_instances)))
    return sim, network, controller


# ------------------------------------------------------------------ scan-free
class CountingInstance(Instance):
    """A handle that counts how often the tables compare it to another."""

    __slots__ = ()
    comparisons = 0

    def __eq__(self, other):
        CountingInstance.comparisons += 1
        return self is other

    __hash__ = Instance.__hash__


def test_stopping_an_instance_compares_a_constant_number_of_handles(monkeypatch):
    # A list-based table walks ~N/2 handles per stop (twice: membership
    # test, then remove) on the job and again on the daemon.
    monkeypatch.setattr(splayd_module, "Instance", CountingInstance)
    nodes, daemons = 5000, 10
    sim, _network, controller = _world(seed=1, daemons=daemons,
                                       max_instances=nodes // daemons)
    job = controller.submit(JobSpec(name="big", app_factory=lambda i: None,
                                    instances=nodes))
    controller.start(job)
    rng = random.Random(7)
    victims = rng.sample(job.live_instances(), 60)
    CountingInstance.comparisons = 0

    controller.kill_instances(victims[:40], reason="controller kill")
    victims[40].events.exit()                       # self-exit: reap only
    controller.fail_host(victims[41].daemon.ip)     # every instance of a host

    stops = job.stats.instances_stopped + job.stats.instances_failed + 1
    assert stops > 100  # the host failure alone stops hundreds
    assert job.live_count == nodes - stops
    assert CountingInstance.comparisons <= 2 * stops, (
        f"{CountingInstance.comparisons} handle comparisons for {stops} "
        f"stops on a {nodes}-instance job: a table is being scanned")


# ----------------------------------------------------------- order equivalence
class ListModel:
    """The list-based bookkeeping the keyed tables replaced.

    ``job`` is the controller-side list (append on start, ``remove`` on a
    recorded stop), ``daemons`` the per-host lists (append on spawn,
    ``remove`` on any death), and the live view is a filter + id sort.
    """

    def __init__(self, controller):
        self.job = []
        self.daemons = {ip: [] for ip in controller.daemons}
        self.dead = set()
        self.started = self.stopped = self.failed = 0

    def start(self, started):
        for instance in started:  # record order == spawn order per daemon
            self.job.append(instance)
            self.daemons[instance.daemon.ip].append(instance)
        self.started += len(started)

    def _die(self, instance):
        self.dead.add(instance)
        if instance in self.daemons[instance.daemon.ip]:
            self.daemons[instance.daemon.ip].remove(instance)

    def kill(self, victims, failed):
        for instance in victims:
            self._die(instance)
            if instance in self.job:
                self.job.remove(instance)
        if failed:
            self.failed += len(victims)
        else:
            self.stopped += len(victims)

    def self_exit(self, instance):
        self._die(instance)  # the controller never hears of it

    def fail_host(self, ip):
        self.kill(list(self.daemons[ip]), failed=True)

    def live(self):
        return sorted((i for i in self.job if i not in self.dead),
                      key=lambda i: i.instance_id)

    def status(self):
        return {
            "live_instances": len(self.live()),
            "instances_started": self.started,
            "instances_stopped": self.stopped,
            "instances_failed": self.failed,
            "bytes_sent": sum(i.socket.stats.bytes_sent for i in self.job),
            "messages_sent": sum(i.socket.stats.messages_sent for i in self.job),
        }


def _chatty_factory(instance):
    # Distinct per-instance traffic, so the socket sums of job_status depend
    # on exactly which handles the job still lists.
    instance.socket.send(instance.me, "x" * (instance.instance_id % 17 + 1))
    return None


@pytest.mark.parametrize("seed", range(12))
def test_tables_match_the_list_model_through_random_lifecycles(seed):
    sim, _network, controller = _world(seed=seed, daemons=5, max_instances=6,
                                       shards=2)
    Sanitizer(sim, strict=True).install()  # cross-checks after every action
    job = controller.submit(JobSpec(name="app", app_factory=_chatty_factory,
                                    instances=8))
    model = ListModel(controller)
    model.start(controller.start(job))
    rng = random.Random(f"lifecycle/{seed}")

    for _step in range(80):
        live = job.live_instances()
        action = rng.choice(["start", "kill", "crash", "exit", "fail", "recover"])
        if action == "start":
            model.start(controller.start_instances(job, rng.randrange(1, 5)))
        elif action in ("kill", "crash") and live:
            victims = rng.sample(live, rng.randrange(1, min(4, len(live)) + 1))
            failed = action == "crash"
            controller.kill_instances(victims, reason=action, failed=failed)
            model.kill(victims, failed)
        elif action == "exit" and live:
            victim = rng.choice(live)
            victim.events.exit()
            model.self_exit(victim)
        elif action == "fail" and controller.alive_host_ips():
            ip = rng.choice(controller.alive_host_ips())
            controller.fail_host(ip)
            model.fail_host(ip)
        elif action == "recover" and controller.failed_host_ips():
            controller.recover_host(rng.choice(controller.failed_host_ips()))
        sim.run(until=sim.now + 0.5)

        assert list(job.instances) == model.job
        assert job.live_instances() == model.live()
        assert job.live_count == len(model.live())
        for ip, daemon in controller.daemons.items():
            assert list(daemon.instances) == model.daemons[ip]
        status = controller.job_status(job)
        assert {key: status[key] for key in model.status()} == model.status()
