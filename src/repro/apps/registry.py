"""Pluggable scenario registry.

Each workload module registers a :class:`ScenarioSpec` describing how to run
it end to end: the scenario runner, its CLI arguments, the default churn
script, and how to extract bench metrics from its report.  The scenarios CLI
and the bench sweep are built entirely from this registry, so adding a
workload is: write the app module, register a spec, done — the subcommand,
the churn/`--cdf`/`--duration` plumbing and the bench integration come for
free.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def default_bench_metrics(report: dict) -> dict:
    """Bench columns shared by every workload (from the standard summary)."""
    measured = report.get("measured") or {}
    return {
        "lookups_issued": measured.get("issued", 0),
        "lookups_correct": measured.get("correct", 0),
        "success_rate": round(measured.get("success_rate", 0.0), 6),
        "latency_p50_ms": round(measured.get("latency_p50_ms", 0.0), 3),
        "latency_p95_ms": round(measured.get("latency_p95_ms", 0.0), 3),
        "hops_mean": round(measured.get("hops_mean", 0.0), 4),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything the CLI/bench needs to run one registered workload.

    ``runner(config, **workload_params)`` takes the run's execution options
    whole, as one :class:`repro.apps.harness.RunConfig` (size, seed, testbed,
    churn, windows, duration preset, shards, observation flags, allocator,
    GC policy), plus — by keyword — whatever ``add_arguments`` declares
    (mapped through ``make_kwargs``), and returns the report dict.  It hands
    the config on to :func:`repro.apps.harness.deploy` unopened except for
    the fields it reads itself, so a registered workload runs on every
    environment preset, under trace-driven host churn and with every
    execution option with no per-workload code.
    """

    name: str
    help: str
    runner: Callable[..., dict]
    default_churn_script: str
    #: register workload-specific CLI flags on the subparser
    add_arguments: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    #: map parsed workload-specific flags to runner kwargs
    make_kwargs: Callable[[argparse.Namespace], dict] = lambda args: {}
    #: keyword argument of ``runner`` holding the measured-operation count
    #: (``None`` when the workload's size is fixed by the deployment itself)
    ops_param: Optional[str] = "lookups"
    #: what one measured operation is called in reports ("lookup", ...)
    ops_label: str = "lookup"
    default_min_success: float = 0.99
    #: extra ``workload`` report keys printed by the CLI, in order
    extra_report_lines: List[str] = field(default_factory=list)
    #: extract the workload-quality bench columns from a report
    bench_metrics: Callable[[dict], dict] = default_bench_metrics


_REGISTRY: Dict[str, ScenarioSpec] = {}


class UnknownScenarioError(KeyError):
    """Raised when looking up a scenario name nobody registered."""


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry (idempotent for the same object)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ScenarioSpec:
    load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownScenarioError(f"unknown scenario {name!r} (known: {known})") from None


def all_specs() -> List[ScenarioSpec]:
    """Registered specs, in registration order (chord first)."""
    load_builtin()
    return list(_REGISTRY.values())


def scenario_names() -> List[str]:
    return [spec.name for spec in all_specs()]


def load_builtin() -> None:
    """Import the built-in workload modules (each registers its spec)."""
    # Imports are local to avoid a cycle: workload modules import this module
    # to register themselves.
    from repro.apps import chord, dissemination, gossip, pastry  # noqa: F401
