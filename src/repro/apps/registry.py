"""The four workloads the scenarios CLI offers.

Each workload module declares its scenario once — a
:class:`repro.apps.harness.Scenario` subclass naming its parameters, report
lines, default churn script and three hooks — and :func:`all_specs` lists
it.  The scenarios CLI is built entirely from this list, so adding a
workload is: write the app module, declare its scenario, add the class to
:func:`all_specs`, done — the subcommand, its flags and the
churn/`--cdf`/`--duration` plumbing come for free.
"""

from __future__ import annotations

from typing import List


def all_specs() -> List[type]:
    """The scenario classes, chord first (the CLI lists them in this order)."""
    # Local: importing the registry imports no workload before one is asked for.
    from repro.apps import chord, dissemination, gossip, pastry
    return [chord.ChordScenario, pastry.PastryScenario,
            gossip.GossipScenario, dissemination.DisseminationScenario]


def get_spec(name: str) -> type:
    """The scenario called ``name``; a ``KeyError`` names the known ones."""
    specs = all_specs()
    for spec in specs:
        if spec.name == name:
            return spec
    known = ", ".join(spec.name for spec in specs)
    raise KeyError(f"unknown scenario {name!r} (known: {known})")


def scenario_names() -> List[str]:
    return [spec.name for spec in all_specs()]
