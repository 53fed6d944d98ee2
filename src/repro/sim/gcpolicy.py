"""GC discipline for large deployments: raise the thresholds, then freeze.

CPython's cyclic collector is generational, but every full (gen2) collection
walks the *entire* tracked heap.  A 10k-node deployment keeps millions of
long-lived objects alive for the whole run — nodes, fingers, sockets,
routing tables — so ambient gen2 sweeps grow linearly with deployment size
while the per-event work stays constant: exactly the super-linear cost the
scale bench exists to expose.  This module gives the harness an explicit
policy instead of the interpreter default:

* ``off`` — leave the interpreter's ambient collector alone (the baseline
  every digest-parity test compares against).
* ``tuned`` — raise the generation thresholds for the deployment phase
  (mass allocation would otherwise trigger hundreds of young collections
  and promote the whole object graph through gen2 repeatedly), then
  ``gc.collect()`` + ``gc.freeze()`` once the job is running: the
  deployment's long-lived graph moves to the permanent generation, which
  ambient collections never scan again.

(A third mode that also disabled ambient collection and collected at the
drain loop's slice boundaries was measured slower than both — 40.1k against
44.8k ``tuned`` / 43.7k ``off`` events/s on the 1k-node cell — and is gone.)

Determinism contract: the policy never schedules simulator events, draws no
randomness and mutates no simulation state — collection only reclaims
unreachable cycles, which no live object can observe.  Report digests are
therefore byte-identical for both modes (asserted by
``tests/test_gcpolicy_caches.py`` across all four workloads and both
kernels); the policy's own counters land in the digest-excluded ``gc``
report section and, when observability is on, in the metrics plane.

Public entry points: :class:`GCPolicy` and :data:`GC_MODES`.
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional

#: accepted ``--gc-policy`` values
GC_MODES = ("off", "tuned")

#: generation thresholds used while the tuned policy is engaged.  The
#: interpreter default (700, 10, 10) makes the collector run thousands of
#: young collections during a mass deployment; a 50k allocation budget per
#: gen0 pass keeps collection off the hot path without letting true garbage
#: pile up unboundedly.
TUNED_THRESHOLDS = (50_000, 25, 25)


class GCPolicy:
    """One deployment's garbage-collection discipline.

    Lifecycle: construct with a mode, :meth:`engage` before the substrate
    is built (thresholds go up so deployment does not thrash the young
    generations), :meth:`after_deploy` once the job is running (collect +
    freeze) and :meth:`disengage` before reporting (restores the
    interpreter's prior configuration).  Every step is idempotent and
    ``off`` turns them all into no-ops, so call sites never need mode
    conditionals.
    """

    def __init__(self, mode: str = "off"):
        if mode not in GC_MODES:
            raise ValueError(f"unknown gc policy mode: {mode!r} "
                             f"(expected one of {', '.join(GC_MODES)})")
        self.mode = mode
        self.engaged = False
        self.frozen = False
        #: explicit collects (the one before the post-deploy freeze), the
        #: objects it reclaimed and the wall seconds it paused the run for
        self.explicit_collects = 0
        self.collected_objects = 0
        self.pause_wall_s = 0.0
        #: objects moved to the permanent generation by the post-deploy freeze
        self.frozen_objects = 0
        self._saved_thresholds: Optional[tuple] = None
        self._stats_at_engage: Optional[List[dict]] = None

    # -------------------------------------------------------------- lifecycle
    def engage(self) -> "GCPolicy":
        """Raise thresholds for the deployment phase (``tuned`` only)."""
        if self.mode == "off" or self.engaged:
            return self
        self.engaged = True
        self._saved_thresholds = gc.get_threshold()
        self._stats_at_engage = gc.get_stats()
        gc.set_threshold(*TUNED_THRESHOLDS)
        return self

    def after_deploy(self) -> None:
        """Collect once, then freeze the deployed object graph.

        Everything alive at this point — the topology, daemons, instances
        and application state — stays alive for the whole run; freezing it
        moves it to the permanent generation so no ambient collection ever
        scans it again.
        """
        if self.mode == "off" or not self.engaged or self.frozen:
            return
        started = time.perf_counter()  # det: ignore[DET102] -- GC pause attribution, digest-excluded
        self.collected_objects = gc.collect()
        self.pause_wall_s = time.perf_counter() - started  # det: ignore[DET102] -- GC pause attribution, digest-excluded
        self.explicit_collects = 1
        gc.freeze()
        self.frozen = True
        self.frozen_objects = gc.get_freeze_count()

    def disengage(self) -> None:
        """Restore the interpreter's prior GC configuration (idempotent)."""
        if not self.engaged:
            return
        if self.frozen:
            gc.unfreeze()
            self.frozen = False
        gc.set_threshold(*self._saved_thresholds)
        self.engaged = False

    # ------------------------------------------------------------- accounting
    def ambient_collections(self) -> List[int]:
        """Per-generation ambient collection counts since :meth:`engage`."""
        if self._stats_at_engage is None:
            return [s["collections"] for s in gc.get_stats()]
        return [now["collections"] - then["collections"]
                for now, then in zip(gc.get_stats(), self._stats_at_engage)]

    def section(self) -> dict:
        """The digest-excluded ``gc`` report section."""
        return {
            "mode": self.mode,
            "frozen_objects": self.frozen_objects,
            "explicit_collects": self.explicit_collects,
            "collected_objects": self.collected_objects,
            "pause_wall_s": round(self.pause_wall_s, 6),
            "ambient_collections": self.ambient_collections(),
            "thresholds": list(gc.get_threshold()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<GCPolicy {self.mode} engaged={self.engaged} "
                f"frozen={self.frozen}>")
