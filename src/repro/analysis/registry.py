"""Rule registry for the determinism linter.

Every rule carries a stable id (``DET101``...), a one-line summary, a fix-it
message shown with each finding, and an optional path *scope* (the rule only
applies to files whose normalised path contains one of the scope fragments)
plus *exempt* fragments (files where the hazard is the blessed
implementation itself, e.g. ``repro/sim/rng.py`` for the RNG rule).

Checkers (AST visitors, see :mod:`repro.analysis.visitors`) attach
themselves to a rule via :func:`register_checker`; the driver asks
:func:`applicable_rules` which checkers to run for a given file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type


@dataclass(frozen=True)
class Rule:
    """Metadata for one determinism hazard class."""

    id: str
    name: str
    summary: str
    fixit: str
    #: path fragments the rule is limited to (empty = every analysed file)
    scope: Tuple[str, ...] = ()
    #: path fragments exempt from the rule (the blessed implementation sites)
    exempt: Tuple[str, ...] = ()
    #: attached checker class (set by :func:`register_checker`)
    checker: Optional[type] = field(default=None, compare=False)


_RULES: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    if rule.id in _RULES:
        raise ValueError(f"rule {rule.id} is already registered")
    _RULES[rule.id] = rule
    return rule


def register_checker(rule: Rule):
    """Class decorator attaching an AST checker to ``rule``."""

    def _attach(cls: Type) -> Type:
        object.__setattr__(rule, "checker", cls)
        cls.rule = rule
        return cls

    return _attach


def all_rules() -> List[Rule]:
    """Registered rules in id order."""
    _load_checkers()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    _load_checkers()
    return _RULES[rule_id]


def known_rule_ids() -> List[str]:
    _load_checkers()
    return sorted(_RULES)


def applicable_rules(path: str) -> List[Rule]:
    """Rules that apply to ``path`` (normalised to forward slashes)."""
    norm = path.replace("\\", "/")
    rules = []
    for rule in all_rules():
        if rule.scope and not any(fragment in norm for fragment in rule.scope):
            continue
        if any(fragment in norm for fragment in rule.exempt):
            continue
        rules.append(rule)
    return rules


def _load_checkers() -> None:
    # Imported lazily: visitors.py imports this module to register itself.
    from repro.analysis import visitors  # noqa: F401


# --------------------------------------------------------------------- rules
#: module-global RNG use outside the blessed substream-derivation module
RULE_GLOBAL_RNG = register_rule(Rule(
    id="DET101",
    name="module-global-rng",
    summary="module-global random use (process-wide RNG state breaks "
            "seeded reproducibility)",
    fixit="draw from the simulator-owned `sim.rng` or derive a labelled "
          "stream via `repro.sim.rng.substream(seed, ...)`",
    exempt=("repro/sim/rng.py",),
))

#: wall-clock reads inside simulation code
RULE_WALL_CLOCK = register_rule(Rule(
    id="DET102",
    name="wall-clock-read",
    summary="wall-clock read in simulation code (results would depend on "
            "host speed and scheduling)",
    fixit="use virtual time (`sim.now` / `events.now()`); for deliberate "
          "bench timing add `# det: ignore[DET102]`",
))

#: iteration order of sets (and id()/hash() sort keys) is nondeterministic
RULE_UNORDERED_ITER = register_rule(Rule(
    id="DET103",
    name="unordered-iteration",
    summary="iteration over an unordered set (or an id()/hash() sort key) "
            "feeds hash-seed-dependent order into the simulation",
    fixit="iterate `sorted(...)` with a value-based key, or keep insertion "
          "order in a list/dict",
))

#: class-level mutable state shared across co-hosted simulations
RULE_CLASS_STATE = register_rule(Rule(
    id="DET104",
    name="class-level-state",
    summary="class-level mutable state / class- or module-level counter "
            "(shared across every simulation in the process -- the PR 2 "
            "pid-counter bug class)",
    fixit="move the state onto the instance (e.g. allocate ids from the "
          "owning Simulator) so co-hosted seeded runs stay independent",
))

#: environment/filesystem reads on simulation hot paths
RULE_ENV_READ = register_rule(Rule(
    id="DET105",
    name="environment-read",
    summary="os.environ / filesystem read inside a simulation hot path "
            "(results would depend on the host environment)",
    fixit="thread configuration through explicit parameters (JobSpec "
          "options, testbed presets) instead of ambient host state",
    scope=("repro/sim/", "repro/net/", "repro/lib/"),
))
