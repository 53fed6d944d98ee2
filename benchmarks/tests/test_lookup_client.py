"""The benchmark-owned lookup driver classifies every outcome, hides nothing."""

from types import SimpleNamespace

import pytest

import child
from repro.lib.rpc import RpcTimeout
from repro.sim.futures import FutureCancelled
from repro.sim.kernel import Simulator


class NoRoute(Exception):
    pass


OWNER = SimpleNamespace(ip="10.0.0.1", port=20000)
OTHER = SimpleNamespace(ip="10.0.0.2", port=20000)


class ScriptedApp:
    """Answers ``lookup(key)`` according to a per-key script."""

    joined = True

    def __init__(self, script: dict):
        self.script = script
        self.instance = SimpleNamespace(alive=True)

    def lookup(self, key):
        yield 0.5  # every lookup takes half a simulated second
        action = self.script[key]
        if isinstance(action, BaseException):
            raise action
        if action == "die":
            self.instance.alive = False
            return OWNER, 1
        return action, 1


class Probe(child.LookupWorkload):
    routing_failure = NoRoute

    def oracle(self, job, key):
        return OWNER


def run_client(script: dict) -> Probe:
    keys = list(script)
    workload = Probe({"think_s": 0.25, "ops_per_client": len(keys), "measure_seconds": 10.0,
                      "client_streams": [{"keys": keys, "origin_draws": [0] * len(keys)}]})
    sim = Simulator(0)
    app = ScriptedApp(script)
    job = SimpleNamespace(live_instances=lambda: [SimpleNamespace(app=app)])
    workload.start(SimpleNamespace(sim=sim, job=job, measure_start=0.0))
    sim.run(until=100.0)
    assert workload.finished()
    return workload


def test_every_outcome_is_classified_and_only_ok_latencies_are_kept():
    workload = run_client({
        0: OWNER, 1: OTHER, 2: NoRoute("no route"), 3: RpcTimeout("late"),
        4: FutureCancelled("origin killed"), 5: OWNER,
    })
    attempted, fails, ok_latencies = workload.outcomes()
    assert attempted == 6
    assert fails == {"routing": 1, "rpc_timeout": 1, "origin_died": 1, "wrong_owner": 1}
    assert ok_latencies == [pytest.approx(0.5)] * 2


def test_an_answer_from_an_origin_that_died_is_not_ok():
    _attempted, fails, ok_latencies = run_client({0: "die"}).outcomes()
    assert fails["origin_died"] == 1 and not ok_latencies


def test_an_exception_outside_the_taxonomy_is_raised_not_counted():
    workload = run_client({0: OWNER, 1: ValueError("a bug"), 2: OWNER})
    with pytest.raises(ValueError, match="a bug"):
        workload.outcomes()
