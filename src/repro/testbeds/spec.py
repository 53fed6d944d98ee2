"""Testbed specifications.

A *testbed* is everything environment-shaped about a deployment: the
topology (if any), the latency model, the loss model, the host-load /
processing-delay model and link capacities.
Workloads never see any of it directly — the harness looks a testbed up by
name, calls its builder for the network substrate, and deploys the same job on
whatever comes back.  That is the paper's Section 5.4 contract: the same
application runs unchanged on a local cluster, on PlanetLab, or on a mixed
deployment spanning both.

Public entry points: :class:`TestbedSpec` (one named environment),
:class:`BuiltTestbed` (the substrate a builder returns) and
:func:`default_host_policy` (the host count of every testbed); the four
presets are :data:`repro.testbeds.presets.TESTBEDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.net.network import Network
from repro.sim.kernel import Simulator


def default_host_policy(nodes: int) -> int:
    """The host count of every testbed: half the instances, at least 8, so
    switching testbeds never changes the deployment size."""
    return max(8, nodes // 2)


@dataclass
class BuiltTestbed:
    """The substrate a testbed builder hands back to the harness.

    ``network`` has every host's latency/loss/bandwidth/processing models
    already wired; ``topology`` is the emulated topology object when the
    testbed has one (``None`` for model-only testbeds like ``planetlab``);
    ``description`` is the dict recorded as the report's ``topology`` entry
    (for ``transit-stub`` it must stay exactly ``topology.describe()`` so
    historical report digests are preserved); ``groups`` maps each host IP
    to its sub-testbed name on mixed deployments (empty otherwise).
    """

    network: Network
    topology: Optional[Any] = None
    description: Dict[str, Any] = field(default_factory=dict)
    groups: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TestbedSpec:
    """One named deployment environment.

    ``builder`` receives ``(sim, ips, seed)`` — the simulator, the host
    address plan and the root seed — and returns a fully wired
    :class:`BuiltTestbed`; ``help`` is the preset's line in the CLI's
    ``--testbed`` help.
    """

    #: not a test class, whatever pytest thinks of the name
    __test__ = False

    name: str
    help: str
    builder: Callable[[Simulator, List[str], int], BuiltTestbed]
