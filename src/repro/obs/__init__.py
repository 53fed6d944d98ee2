"""Deterministic observability: metrics, tracing, flight recorder, profiler.

The measurement plane the paper promises the experimenter (deployment, log
collection *and* measurement by the platform).  One :class:`Observability`
handle per deployment sits on ``sim._obs`` — exactly like the sanitizer's
``sim._san`` — and the kernel consults it with a single pointer test per
dispatched event, so everything here is a no-op unless a flag turned it on:

* ``--metrics``: sim-clock-stamped counters/gauges/histograms
  (:mod:`repro.obs.metrics`), aggregated per job through the JobStore.
* ``--trace-out FILE``: causal spans (:mod:`repro.obs.tracing`) exported as
  Perfetto-loadable Chrome trace-event JSON, one track per host, threaded
  on the kernel's per-event ``origin`` provenance.
* ``--profile``: wall-time/event-count attribution to callback sites
  (:mod:`repro.obs.profiler`) — the only sanctioned wall-clock consumer.
* The flight recorder (:mod:`repro.obs.recorder`) is always on when the
  handle is installed (including ``--sanitize``): a bounded ring of recent
  events and spans dumped on sanitizer violations, ``--min-success``
  failures and deadline overruns.

Determinism contract: nothing observed here feeds back into the
simulation — no randomness, no scheduling, no event references held (the
free-list recycling rules of ``sim/sanitizer.py`` apply) — and every
report section this package produces (``metrics``/``trace``/``profile``/
``flight_recorder``) is digest-excluded, so report digests are
byte-identical with and without every flag.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (  # noqa: F401 - re-exported API
    COUNT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BOUNDS_S,
    MetricsRegistry,
    log_bucket_bounds,
)
from repro.net import bwalloc as _bwalloc
from repro.obs.profiler import KernelProfiler
from repro.obs.recorder import FlightRecorder, callback_label
from repro.obs.tracing import Tracer, load_trace  # noqa: F401 - re-exported

__all__ = [
    "Observability", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "log_bucket_bounds", "LATENCY_BOUNDS_S", "COUNT_BOUNDS",
    "KernelProfiler", "FlightRecorder", "Tracer", "callback_label",
    "load_trace",
]

#: ring entries attached to sanitizer violation reports / failure dumps
RING_CONTEXT = 12


class Observability:
    """Per-deployment observability handle (installed on ``sim._obs``)."""

    __slots__ = ("sim", "metrics_enabled", "tracer", "profiler", "recorder",
                 "_stamp")

    def __init__(self, sim, metrics: bool = False, tracing: bool = False,
                 profile: bool = False, ring_size: int = 256):
        self.sim = sim
        self.metrics_enabled = metrics
        self.recorder = FlightRecorder(ring_size)
        self.tracer = (Tracer(clock=lambda: sim.now, recorder=self.recorder)
                       if tracing else None)
        self.profiler = KernelProfiler() if profile else None
        # Origin-stamping hook ``Simulator.schedule`` consults; None keeps the
        # scheduling hot path at a single pointer test when tracing is off.
        self._stamp = self.note_scheduled if tracing else None

    # --------------------------------------------------------------- lifecycle
    def install(self) -> "Observability":
        self.sim._obs = self
        self.sim._obs_stamp = self._stamp
        return self

    def uninstall(self) -> None:
        if getattr(self.sim, "_obs", None) is self:
            self.sim._obs = None
            self.sim._obs_stamp = None

    # ---------------------------------------------------------- kernel hooks
    def note_scheduled(self, event) -> None:
        """Stamp ``event.origin`` with the label of the scheduling event.

        Mirrors the sanitizer's provenance stamp (when the sanitizer is
        installed it stamps instead — one writer per event).  Only wired
        while tracing is on; the stamp itself is a plain string, so the
        event free list keeps recycling normally.
        """
        tracer = self.tracer
        event.origin = f"scheduled t={event.time:.6f} by {tracer.current_label()}"

    def run_event(self, event) -> None:
        """Dispatch one event with observation around the callback.

        Called by the kernel *instead of* ``event.callback(*event.args)``
        when installed.  Everything referencing the event is dropped before
        this frame returns, so the kernel's refcount-gated free-list
        recycling sees exactly the references it expects.
        """
        self.recorder.push_event(event.time, event.seq, event.callback,
                                 event.origin)
        tracer = self.tracer
        if tracer is not None:
            tracer.current = (event.time, event.seq, event.callback)
        profiler = self.profiler
        if profiler is None:
            event.callback(*event.args)
        else:
            clock = profiler.clock
            started = clock()
            event.callback(*event.args)
            profiler.add(event.callback, clock() - started)

    # -------------------------------------------------------------- reporting
    def metrics_section(self, deployment) -> dict:
        """The digest-excluded ``metrics`` report section.

        Pulls the always-on cheap counters (kernel, network, bandwidth,
        RPC stats, control plane) together with the per-job registry the
        instances emitted into through the JobStore.
        """
        sim = deployment.sim
        network = deployment.network
        stats = network.stats
        bandwidth = network.bandwidth
        controller = deployment.controller
        job = deployment.job

        rpc = {key: 0 for key in ("calls_sent", "calls_received",
                                  "replies_sent", "replies_received",
                                  "retries", "timeouts", "remote_errors",
                                  "send_failures")}
        for instance in job.live_instances():
            instance_stats = instance.rpc.stats
            for key in rpc:
                rpc[key] += getattr(instance_stats, key)

        return {
            "enabled": True,
            "kernel": {
                "events_dispatched": sim.executed_events,
                "events_recycled": sim.recycled_events,
                "events_cancelled": sim.cancelled_events,
            },
            "network": {
                "messages_sent": stats.messages_sent,
                "messages_delivered": stats.messages_delivered,
                "messages_dropped": stats.messages_dropped,
                "drops_loss": stats.drops_loss,
                "drops_dead_host": stats.drops_dead_host,
                "drops_no_listener": stats.drops_no_listener,
                "bytes_sent": stats.bytes_sent,
                "transfers_started": stats.transfers_started,
                "transfers_completed": bandwidth.completed,
                "transfer_bytes_completed": round(bandwidth.bytes_completed),
                "flow_preemptions": bandwidth.preemptions,
            },
            "bandwidth": {
                "allocator": bandwidth.allocator_name,
                "reallocations": bandwidth.reallocations,
                "flows_allocated": bandwidth.flows_allocated,
                # Per-priority-class completed bytes and preemptions, plus
                # offered bytes per class (messages and transfers together).
                "by_class": bandwidth.class_stats(),
                "busiest_links": bandwidth.busiest_links(),
                "bytes_offered_by_class": {
                    _bwalloc.PRIORITY_NAMES.get(cls, str(cls)): count
                    for cls, count in sorted(stats.bytes_by_class.items())
                },
            },
            "rpc": rpc,
            # GC-policy counters (repro.sim.gcpolicy) when a policy is
            # active: ambient vs explicit collections, freeze size, pauses.
            **({"gc": deployment.gc_policy.section()}
               if deployment.gc_policy is not None else {}),
            "control_plane": {
                "shards": [
                    {"name": shard.name,
                     "batches_sent": shard.stats.batches_sent,
                     "commands_sent": shard.stats.commands_sent,
                     "logs_routed": shard.stats.logs_routed}
                    for shard in controller.shards
                ],
                "log_records_collected": len(controller.job_logs(job)),
                "log_records_dropped": job.stats.log_records_dropped,
            },
            "job": controller.job_metrics(job),
        }

    def trace_section(self) -> Optional[dict]:
        return self.tracer.summary() if self.tracer is not None else None

    def profile_section(self, top_n: int = 15) -> Optional[dict]:
        return self.profiler.section(top_n) if self.profiler is not None else None

    def ring_lines(self, last: int = RING_CONTEXT,
                   header: str = "flight recorder") -> list:
        return self.recorder.dump_lines(last=last, header=header)
