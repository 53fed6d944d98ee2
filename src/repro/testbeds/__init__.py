"""Deployment environments (testbeds).

Paper counterpart: Section 5.4 — the same SPLAY applications run unchanged
on a local cluster, on ModelNet, on PlanetLab and on mixed deployments
spanning several testbeds at once.  This package holds everything
environment-shaped: a :class:`TestbedSpec` bundles the topology, latency,
loss, bandwidth and host-load models behind one name, and the harness
builds whatever the selected spec describes.

The four presets are the :data:`~repro.testbeds.presets.TESTBEDS` table:
``transit-stub`` (the historical default), ``cluster``, ``planetlab`` and
``mixed``; a new environment is one more entry there.
"""

from repro.testbeds.spec import BuiltTestbed, TestbedSpec, default_host_policy
from repro.testbeds.presets import TESTBEDS, get_testbed

__all__ = [
    "BuiltTestbed",
    "TESTBEDS",
    "TestbedSpec",
    "default_host_policy",
    "get_testbed",
]
