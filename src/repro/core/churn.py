"""Churn management: the script language and its replay engine.

Paper counterpart: the churn scripts and the controller-side churn manager
of Section 3.2 — a dedicated language "to specify churn behaviors ...
composed of a list of timestamped events" that can reproduce both synthetic
churn (periodic replacement of a fraction of the nodes) and real traces.
"Using churn scripts allows comparison of competing algorithms under the
very same churn scenarios."

Public entry points: :func:`parse_churn_script` (script language),
:func:`trace_churn_actions` / :func:`parse_availability_trace` /
:func:`synthetic_availability_trace` (Overnet-style availability traces),
:class:`ChurnAction` (one parsed directive) and :class:`ChurnManager`
(replays a script against one job through the controller, batching each
action's kills per daemon).

The script language reproduced here (one directive per line, ``#`` comments):

.. code-block:: text

    at 30s  join 10          # start 10 new instances
    at 2m   leave 5          # gracefully stop 5 random instances
    at 2m   crash 10%        # abruptly kill 10% of the live instances
    at 3m   fail 2           # host-level: kill 2 whole daemons (all instances)
    at 4m   recover 2        # host-level: bring 2 failed daemons back up
    from 5m to 10m every 30s replace 5%   # continuous churn window
    at 12m  stop             # stop the whole job

Counts may be absolute (``5``) or a percentage of the currently-live
instances (``10%``) — for the host-level ``fail``/``recover`` directives the
percentage is of the currently-alive (respectively failed) hosts.  All
randomness (victim selection, join placement) is drawn from deterministic
substreams so that two runs with the same seed observe the exact same churn.
Anything else on a line — an unknown directive, a negative count, a window
that runs backwards, a trailing token — is a :class:`ChurnScriptError` that
names the line.

Real traces enter through the same machinery: the paper's churn language
can "reproduce the behavior of real systems by replaying availability
traces (e.g., from Overnet)".  :func:`trace_churn_actions` converts an
availability trace (``host_id start end`` lines, one line per uptime
interval) into host-level fail/recover :class:`ChurnAction` lists targeting
*specific* hosts, and :func:`synthetic_availability_trace` generates a
deterministic trace in the same format for tests and CI.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.lib.misc import parse_duration
from repro.sim.rng import substream

if TYPE_CHECKING:  # pragma: no cover - runtime objects are duck-typed here
    from repro.core.jobs import Job
    from repro.sim.kernel import Simulator

#: directives that take an amount (``stop`` is the one that does not)
_AMOUNT_KINDS = ("join", "leave", "crash", "replace", "fail", "recover")
#: directives acting on whole hosts (daemons) instead of instances
_HOST_KINDS = ("fail", "recover")


@dataclass(frozen=True)
class ChurnAction:
    """One timestamped churn directive (times are relative to churn start).

    ``host`` is set on trace-derived host-level actions only: it names the
    trace's host id, which the replayer maps onto a concrete daemon.
    Script-driven ``fail``/``recover`` directives leave it ``None`` and pick
    random hosts instead.
    """

    time: float
    kind: str
    count: int = 0
    fraction: Optional[float] = None
    host: Optional[str] = None

    def resolve_count(self, live: int) -> int:
        """Number of instances affected, given ``live`` running instances."""
        if self.fraction is not None:
            return max(1, round(live * self.fraction)) if live else 0
        return self.count


class ChurnScriptError(ValueError):
    """Raised when a churn script cannot be parsed."""


def _parse_amount(token: str) -> tuple[int, Optional[float]]:
    if token.endswith("%"):
        fraction = float(token[:-1]) / 100.0
        if not 0.0 <= fraction <= 1.0:
            raise ChurnScriptError(f"churn percentage out of range: {token}")
        return 0, fraction
    count = int(token)
    if count < 0:
        raise ChurnScriptError(f"churn count must not be negative: {token}")
    return count, None


def _parse_directive(tokens: List[str]) -> List[ChurnAction]:
    """The actions of one directive (a window expands into one per step)."""
    if tokens[0] == "at":
        if len(tokens) == 3 and tokens[2] == "stop":
            return [ChurnAction(time=parse_duration(tokens[1]), kind="stop")]
        if len(tokens) != 4:
            raise ChurnScriptError("expected 'at <t> <kind> <amount>' or 'at <t> stop'")
        times = [parse_duration(tokens[1])]
    elif tokens[0] == "from":
        if len(tokens) != 8 or tokens[2] != "to" or tokens[4] != "every":
            raise ChurnScriptError("expected 'from <t> to <t> every <dt> <kind> <amount>'")
        when, end, step = (parse_duration(tokens[i]) for i in (1, 3, 5))
        if step <= 0 or end < when:
            raise ChurnScriptError("churn window must move forward in time")
        times = []
        while when <= end + 1e-9:
            times.append(when)
            when += step
    else:
        raise ChurnScriptError(f"directives start with 'at' or 'from', got {tokens[0]!r}")
    kind, amount = tokens[-2:]
    if kind not in _AMOUNT_KINDS:
        raise ChurnScriptError("'stop' takes no amount and no window" if kind == "stop"
                               else f"unknown directive: {kind}")
    count, fraction = _parse_amount(amount)
    return [ChurnAction(time=when, kind=kind, count=count, fraction=fraction)
            for when in times]


def parse_churn_script(text: str) -> List[ChurnAction]:
    """Parse a churn script into a time-ordered list of :class:`ChurnAction`.

    ``from .. to .. every .. <kind> <amount>`` windows are expanded into
    discrete actions at parse time, so the replayer only ever deals with
    point events — which is also how trace-derived scripts look.  Every
    error names the line it came from.
    """
    actions: List[ChurnAction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            actions.extend(_parse_directive(line.split()))
        except ValueError as exc:  # a ChurnScriptError is one too
            raise ChurnScriptError(f"line {line_no}: cannot parse {raw!r}: {exc}") from exc
    actions.sort(key=lambda a: a.time)
    return actions


# ------------------------------------------------------------ availability traces
def parse_availability_trace(text: str) -> Dict[str, List[tuple]]:
    """Parse an Overnet-style availability trace into per-host uptime intervals.

    Each non-comment line is ``host_id start end``: host ``host_id`` was up
    from ``start`` to ``end`` (seconds, relative to trace start).  Returns
    ``{host_id: [(start, end), ...]}`` with each host's intervals sorted and
    overlapping/adjacent ones merged.  Hosts appear in first-seen order so
    downstream processing is deterministic.
    """
    raw: Dict[str, List[tuple]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 3:
            raise ChurnScriptError(
                f"trace line {line_no}: expected 'host_id start end', got {line!r}")
        host = tokens[0]
        try:
            start, end = float(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise ChurnScriptError(
                f"trace line {line_no}: cannot parse {line!r}: {exc}") from exc
        if start < 0 or end < start:
            raise ChurnScriptError(
                f"trace line {line_no}: interval must satisfy 0 <= start <= end")
        raw.setdefault(host, []).append((start, end))
    merged: Dict[str, List[tuple]] = {}
    for host, intervals in raw.items():
        intervals.sort()
        spans: List[tuple] = []
        for start, end in intervals:
            if spans and start <= spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], end))
            else:
                spans.append((start, end))
        merged[host] = spans
    return merged


def trace_churn_actions(text: str, horizon: Optional[float] = None) -> List[ChurnAction]:
    """Convert an availability trace into host-level ``fail``/``recover`` actions.

    Every host starts the deployment up (that is what deploying means), so
    a host whose first uptime interval starts after 0 *fails at time 0* and
    recovers when the interval opens; each gap between intervals becomes a
    ``fail`` at the gap's start and a ``recover`` at its end.  A host whose
    availability ends before the trace ``horizon`` (default: the latest
    interval end across all hosts) fails then and stays down — hosts still
    up at the horizon simply keep running.
    """
    intervals = parse_availability_trace(text)
    if not intervals:
        return []
    if horizon is None:
        horizon = max(end for spans in intervals.values() for _start, end in spans)
    actions: List[ChurnAction] = []

    def _emit(time: float, kind: str, host: str) -> None:
        if time <= horizon + 1e-9:
            actions.append(ChurnAction(time=time, kind=kind, host=host))

    for host, spans in intervals.items():
        first_start = spans[0][0]
        if first_start > 0:
            _emit(0.0, "fail", host)
            _emit(first_start, "recover", host)
        for (_s1, end1), (start2, _e2) in zip(spans, spans[1:]):
            _emit(end1, "fail", host)
            _emit(start2, "recover", host)
        last_end = spans[-1][1]
        if last_end < horizon - 1e-9:
            _emit(last_end, "fail", host)
    actions.sort(key=lambda a: a.time)
    return actions


def synthetic_availability_trace(hosts: int = 6, duration: float = 300.0,
                                 seed: int = 0, mean_up: float = 150.0,
                                 mean_down: float = 40.0) -> str:
    """Generate a deterministic Overnet-shaped availability trace.

    Each host alternates exponentially distributed up/down periods (every
    host starts up at time 0 — a deployment places instances on live
    hosts).  The same ``(hosts, duration, seed, mean_up, mean_down)``
    always produces the same trace text, so tests and CI can regenerate the
    bundled trace instead of trusting a checked-in artifact blindly.
    """
    if hosts < 1 or duration <= 0 or mean_up <= 0 or mean_down <= 0:
        raise ValueError("trace parameters must be positive")
    lines = [f"# synthetic availability trace: {hosts} hosts over {duration:g}s "
             f"(seed={seed}, mean up {mean_up:g}s, mean down {mean_down:g}s)",
             "# host_id start end"]
    for index in range(hosts):
        rng = substream(seed, "availability-trace", index)
        now = 0.0
        while now < duration:
            up_end = min(duration, now + rng.expovariate(1.0 / mean_up))
            lines.append(f"h{index} {now:.1f} {up_end:.1f}")
            now = up_end + rng.expovariate(1.0 / mean_down)
    return "\n".join(lines) + "\n"


@dataclass
class ChurnStats:
    """The job's churn counters: the ``churn`` report section and the
    ``churn_*`` keys of ``Controller.job_status`` read them."""

    actions_applied: int = 0
    instances_joined: int = 0
    instances_left: int = 0
    instances_crashed: int = 0
    #: whole-daemon failures/recoveries — a distinct population from the
    #: instance-level counters above (a host failure takes every co-located
    #: instance down at once and survives as a dead *daemon*, not a gap in
    #: one overlay)
    hosts_failed: int = 0
    hosts_recovered: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


class ChurnManager:
    """Replays a churn script against one job through the controller.

    The manager never touches application state directly: leaves and crashes
    go through the controller's ``kill_instances`` (one command round per
    affected daemon, ultimately :meth:`AppContext.kill` — exactly like a
    daemon tearing down a sandboxed process) and joins go through
    ``start_instances``.  The ``controller`` handle is the
    :class:`~repro.runtime.controller.Controller`, which serves every
    command through the job's (or the host's) *current* shard — so churn
    keeps working when the shard that started the job dies mid-run.
    """

    def __init__(self, sim: "Simulator", controller, job: "Job", seed: int = 0):
        self.sim = sim
        self.controller = controller
        self.job = job
        self.rng = substream(seed, "churn", job.job_id)
        # Host-level randomness (victim hosts, trace-host mapping) draws from
        # its own substream so adding host churn to a script never perturbs
        # the instance-level victim sequence of the same seed.
        self._host_rng = substream(seed, "churn-hosts", job.job_id)
        #: trace host id -> daemon ip, assigned deterministically on first use
        self._trace_hosts: Dict[str, str] = {}
        self.actions: List[ChurnAction] = []
        self.stats = ChurnStats()
        #: the timers of the actions still to fire, in firing order
        self._timers: Deque = deque()
        self._started = False

    # ----------------------------------------------------------------- setup
    def load_actions(self, actions: List[ChurnAction]) -> None:
        """Replay a pre-built (e.g. trace-derived) action list."""
        self.actions = sorted(actions, key=lambda a: a.time)

    def start(self) -> None:
        """Schedule every action relative to the current virtual time."""
        if self._started:
            raise RuntimeError("churn manager already started")
        self._started = True
        for action in self.actions:
            self._timers.append(self.sim.schedule(action.time, self._apply, action))

    def cancel(self) -> None:
        """Drop every action that has not fired yet (the job was stopped);
        ``stats`` stays readable."""
        while self._timers:
            self._timers.popleft().cancel()

    # ----------------------------------------------------------------- replay
    def _apply(self, action: ChurnAction) -> None:
        from repro.core.jobs import JobState  # local import to avoid cycles

        # Actions are time-sorted and the kernel fires equal times in
        # schedule order, so the timer that just fired is the oldest one.
        self._timers.popleft()
        if self.job.state is not JobState.RUNNING:
            return
        self.stats.actions_applied += 1
        self.stats.by_kind[action.kind] = self.stats.by_kind.get(action.kind, 0) + 1
        if action.kind == "stop":
            self.controller.stop(self.job)
            return
        if action.kind in _HOST_KINDS:
            self._apply_host_action(action)
            return
        if action.kind in ("leave", "crash", "replace"):
            victims = self._pick_victims(action)
            if victims:
                # One control round per daemon instead of one call per
                # victim.
                self.controller.kill_instances(
                    victims, reason=f"churn:{action.kind}@{self.sim.now:.1f}",
                    failed=(action.kind == "crash"))
            # Crashes and graceful leaves are distinct populations in every
            # churn study; conflating them would corrupt bench reports.
            if action.kind == "crash":
                self.stats.instances_crashed += len(victims)
            else:
                self.stats.instances_left += len(victims)
            if action.kind == "replace":
                self._join(len(victims))
        elif action.kind == "join":
            self._join(action.resolve_count(self.job.live_count))

    # ------------------------------------------------------------ host churn
    def _apply_host_action(self, action: ChurnAction) -> None:
        """Fail or recover whole daemons (trace-targeted or randomly picked).

        Counters are split from the instance-level ones: a host failure is a
        different event population from an instance crash (it takes every
        co-located instance of every job down at once), and churn studies
        report them separately.  The counts live on ``stats`` like every
        other churn counter; the manager lives on the controller, so they
        survive controller-shard failover.
        """
        if action.host is not None:
            ips = [self._trace_host_ip(action.host)]
        else:
            # Both views arrive ip-sorted.
            if action.kind == "fail":
                pool = self.controller.alive_host_ips()
            else:
                pool = self.controller.failed_host_ips()
            count = min(action.resolve_count(len(pool)), len(pool))
            ips = self._host_rng.sample(pool, count) if count > 0 else []
        for ip in ips:
            alive = self.controller.host_alive(ip)
            if action.kind == "fail":
                if not alive:
                    continue  # trace says fail, but the host is already down
                self.controller.fail_host(ip)
                self.stats.hosts_failed += 1
            else:
                if alive:
                    continue
                self.controller.recover_host(ip)
                self.stats.hosts_recovered += 1

    def _trace_host_ip(self, trace_host: str) -> str:
        """Deterministically bind a trace host id to a deployment daemon.

        Each new trace host takes a random not-yet-bound daemon (drawn from
        the host substream); once every daemon is bound, further trace hosts
        wrap around in first-seen order, which keeps arbitrary real traces
        replayable on small deployments.
        """
        ip = self._trace_hosts.get(trace_host)
        if ip is None:
            all_ips = self.controller.daemon_ips()
            bound = set(self._trace_hosts.values())
            free = [candidate for candidate in all_ips
                    if candidate not in bound]
            if free:
                ip = self._host_rng.choice(free)
            else:
                ip = all_ips[len(self._trace_hosts) % len(all_ips)]
            self._trace_hosts[trace_host] = ip
        return ip

    def _pick_victims(self, action: ChurnAction) -> list:
        live = self.job.live_instances()
        count = min(action.resolve_count(len(live)), len(live))
        if count <= 0:
            return []
        return self.rng.sample(live, count)

    def _join(self, count: int) -> None:
        if count <= 0:
            return
        started = self.controller.start_instances(self.job, count)
        self.stats.instances_joined += len(started)
