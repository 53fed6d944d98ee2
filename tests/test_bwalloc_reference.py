"""The link-object fill vs the table-based reference it replaced.

``tests/bwalloc_reference.py`` is the previous implementation, moved out of
``src/`` verbatim.  :func:`repro.net.bwalloc.fill` must reproduce its rates
with ``==`` — bit-identical floats — on seeded random flow sets built to hit what
the rewrite could get wrong: heterogeneous and unlimited capacities, several links tied on the same share (the
first-appearance tie-break), flows left at rate 0, and id-sorted components
cut out of a larger live set.
"""

import random

import pytest

from bwalloc_reference import ReferenceMaxMinAllocator
from repro.apps import harness
from repro.net.bandwidth import UNLIMITED_BPS, BandwidthModel, Transfer
from repro.net.bwalloc import Link, fill
from repro.sim.kernel import Simulator

#: few distinct values, so that equal shares on different links are common
CAPACITIES = [1_000_000.0, 2_000_000.0, 3_000_000.0, 10_000_000.0,
              7_654_321.0, UNLIMITED_BPS]


class _Capacities:
    """What the reference allocator asks of a model."""

    def __init__(self, table):
        self.table = table

    def capacity(self, ip):
        return self.table[ip]


def _flow_set(rng, hosts, flows, uniform=False):
    """A random live set: capacities per host and ``(src, dst)`` flows."""
    ips = harness.host_ips(hosts)
    table = {}
    for ip in ips:
        if uniform:
            table[ip] = (10_000_000.0, 10_000_000.0)
        else:
            table[ip] = (rng.choice(CAPACITIES), rng.choice(CAPACITIES))
    specs = []
    for _ in range(flows):
        src, dst = rng.sample(ips, 2)
        specs.append((src, dst))
    return table, specs


def _build(table, specs):
    """Link objects and transfers for ``specs``, ids in list order."""
    ups, downs, transfers = {}, {}, []
    for index, (src, dst) in enumerate(specs):
        up = ups.get(src)
        if up is None:
            up = ups[src] = Link("up", src, table[src][0])
        down = downs.get(dst)
        if down is None:
            down = downs[dst] = Link("down", dst, table[dst][1])
        transfer = Transfer(up, down, 1_000_000, 0.0, transfer_id=index + 1)
        up.flows.append(transfer)
        down.flows.append(transfer)
        transfers.append(transfer)
    return transfers


def _links_of(flows):
    """First-appearance order, uplink before downlink — by definition."""
    links = []
    for flow in flows:
        for link in (flow.up, flow.down):
            if not any(link is seen for seen in links):
                links.append(link)
    return links


def _components(transfers):
    """Connected components of the flow/link graph, each id-sorted."""
    parent = {}

    def find(key):
        while parent.setdefault(key, key) != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for flow in transfers:
        parent[find(("up", flow.src_ip))] = find(("down", flow.dst_ip))
    groups = {}
    for flow in transfers:
        groups.setdefault(find(("up", flow.src_ip)), []).append(flow)
    return list(groups.values())


def _allocate(flows):
    fill(flows, _links_of(flows))
    return [flow.rate_bps for flow in flows]


@pytest.mark.parametrize("seed", range(6))
def test_rates_equal_the_table_based_reference(seed):
    rng = random.Random(7000 + seed)
    saw_tie = False
    for round_ in range(40):
        hosts = rng.choice([3, 5, 8, 16])
        table, specs = _flow_set(rng, hosts, rng.randrange(1, 4 * hosts),
                                 uniform=round_ % 4 == 0)
        transfers = _build(table, specs)
        reference = ReferenceMaxMinAllocator(_Capacities(table))

        # The whole live set at once (what a global recompute hands over) ...
        for flow in transfers:
            flow.rate_bps = -1.0  # a rate the fill forgot would show
        expected = reference.allocate(transfers)
        assert _allocate(transfers) == expected
        assert all(flow.weight == 0.0 for flow in transfers)
        saw_tie = saw_tie or len(set(expected)) < len(expected)

        # ... and component by component (what the incremental walk hands
        # over): same rates, because the fill is decomposable.
        by_id = dict(zip((flow.transfer_id for flow in transfers), expected))
        for component in _components(transfers):
            assert component == sorted(component, key=lambda f: f.transfer_id)
            assert reference.allocate(component) \
                == [by_id[flow.transfer_id] for flow in component]
            for flow in component:
                flow.rate_bps = -1.0
            assert _allocate(component) \
                == [by_id[flow.transfer_id] for flow in component]
    assert saw_tie


def test_first_appearance_tie_break_between_equal_links():
    """Two links offer the same share; the earlier one must saturate first.

    Flow 1 crosses A-up (10M) and B-down (5M), flow 2 A-up and C-down (5M):
    B-down and C-down tie at 5M per flow, and a 4 Mbps A-up ties no one.
    The rates must be the reference's — in
    particular when the tie is between a downlink met first and an uplink
    met later.
    """
    table = {"A": (10_000_000.0, 10_000_000.0), "B": (5_000_000.0, 5_000_000.0),
             "C": (5_000_000.0, 5_000_000.0), "D": (10_000_000.0, 5_000_000.0)}
    specs = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "A")]
    transfers = _build(table, specs)
    expected = ReferenceMaxMinAllocator(_Capacities(table)).allocate(transfers)
    assert _allocate(transfers) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_rates_follow_the_reference_through_a_random_script(seed):
    """End to end: walk, link order and fill against the old global recompute.

    After every arrival, cancellation, host failure and time advance, the
    rate of every live flow of the model must equal what the
    table-based reference computes over the whole live list.
    """
    rng = random.Random(9000 + seed)
    sim = Simulator(seed)
    model = BandwidthModel(sim)
    ips = harness.host_ips(10)
    # Unlimited paths included, and two of the three scripts start late
    # enough that a small transfer over one finishes below the clock's
    # resolution (retired within the recompute that would have timed it).
    sim.run(until=(0.0, 5000.0, 5e6)[seed])
    for ip in ips:
        model.set_capacity(ip, rng.choice(CAPACITIES), rng.choice(CAPACITIES))
    reference = ReferenceMaxMinAllocator(model)
    transfers = []
    for step in range(260):
        roll = rng.random()
        if roll < 0.55 or not model.active_transfers:
            src, dst = rng.sample(ips, 2)
            transfers.append(model.transfer(
                src, dst, rng.choice([20_000, 300_000, 2_000_000])))
        elif roll < 0.7:
            model.cancel_transfer(rng.choice(transfers))
        elif roll < 0.76:
            model.cancel_host(rng.choice(ips))
        elif roll < 0.8:
            model.set_capacity(rng.choice(ips), rng.choice(CAPACITIES),
                               rng.choice(CAPACITIES))
            model._reallocate()  # a capacity change takes hold at a recompute
        else:
            sim.run(until=sim.now + rng.uniform(0.01, 0.5))
        live = model._active
        assert [flow.rate_bps for flow in live] == reference.allocate(live), \
            f"divergence after step {step}"
    sim.run()
    assert model.active_transfers == 0
