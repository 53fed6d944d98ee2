"""Pluggable scenario registry.

Each workload module declares its scenario once — a
:class:`repro.apps.harness.Scenario` subclass naming its parameters, report
lines, default churn script and three hooks — and :func:`load_builtin`
registers it here.  The scenarios CLI is built entirely from this registry,
so adding a workload is: write the app module, declare its scenario, add it
to :func:`load_builtin`, done — the subcommand, its flags and the
churn/`--cdf`/`--duration` plumbing come for free.
"""

from __future__ import annotations

from typing import Dict, List

_REGISTRY: Dict[str, type] = {}


class UnknownScenarioError(KeyError):
    """Raised when looking up a scenario name nobody registered."""


def register(scenario: type) -> type:
    """Add a scenario class to the registry (idempotent for the same class)."""
    existing = _REGISTRY.get(scenario.name)
    if existing is not None and existing is not scenario:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_spec(name: str) -> type:
    load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownScenarioError(f"unknown scenario {name!r} (known: {known})") from None


def all_specs() -> List[type]:
    """Registered scenarios, in registration order (chord first)."""
    load_builtin()
    return list(_REGISTRY.values())


def scenario_names() -> List[str]:
    return [spec.name for spec in all_specs()]


def load_builtin() -> None:
    """Register the built-in workloads, in this order whatever imported them first."""
    # Local: importing the registry imports no workload before one is asked for.
    from repro.apps import chord, dissemination, gossip, pastry
    for scenario in (chord.ChordScenario, pastry.PastryScenario,
                     gossip.GossipScenario, dissemination.DisseminationScenario):
        register(scenario)
