"""``splayd``: the per-host daemon.

Paper counterpart: *splayd*.  "A splayd instantiates, stops, and monitors
applications on one host.  Each application instance runs in a sandboxed
process; the local administrator sets resource limits that the controller
can only further restrict."

In this reproduction a :class:`Splayd` owns one simulated :class:`Host` on
the network.  Spawning an instance creates a fresh
:class:`~repro.sim.events_api.AppContext` plus the full sandbox stack around
it — restricted socket (merged policy), sandboxed filesystem (merged
quotas), logger (wired to the job's log collector) and RPC service — and
then hands the bundle to the job's application factory.  Killing the context
tears everything down instantly, which is exactly what churn exploits.

Public entry points: :class:`Splayd` (``spawn`` / ``stop_instance``, which
the controller calls in one round per daemon per control action, plus
``fail`` / ``recover`` for host churn), the per-instance handle
:class:`Instance`, and the administrator limits :class:`SplaydLimits`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.jobs import Job
from repro.lib.logging import SplayLogger
from repro.lib.rpc import RpcService
from repro.lib.sbfs import SandboxedFS
from repro.lib.sbsocket import RestrictedSocket, SocketPolicy, stricter_limit
from repro.net.address import Address, NodeRef
from repro.net.network import Network
from repro.sim.events_api import AppContext, Events
from repro.sim.kernel import Simulator


class SplaydError(Exception):
    """Raised when a daemon cannot satisfy a controller request."""


class Host:
    """The simulated machine a daemon runs on (registered with the network)."""

    __slots__ = ("ip", "alive")

    def __init__(self, ip: str):
        # Interned: the same IP string is keyed in the network's host map,
        # the latency attachments and thousands of NodeRefs; interning makes
        # those dict probes pointer comparisons and stores each IP once.
        self.ip = sys.intern(ip)
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.ip} {'up' if self.alive else 'down'}>"


@dataclass
class SplaydLimits:
    """Local administrator limits; the controller can only tighten them."""

    max_instances: Optional[int] = None
    socket_policy: SocketPolicy = field(default_factory=SocketPolicy)
    fs_max_bytes: Optional[int] = None
    fs_max_files: Optional[int] = None
    log_max_bytes: Optional[int] = None


class Instance:
    """One sandboxed application instance (the runtime's ``job`` handle).

    This is the object handed to the application factory — the equivalent of
    the ``job`` table a SPLAY application receives: ``instance.me`` is the
    node's own reference, ``instance.events``/``rpc``/``fs``/``logger`` are
    the sandboxed libraries, and ``instance.options`` carries the job's
    deployment options (the job's own dict, shared by every instance:
    read-only for applications).
    """

    __slots__ = ("job", "instance_id", "daemon", "context", "events",
                 "socket", "rpc", "_fs", "logger", "me", "options", "app")

    def __init__(self, job: Job, instance_id: int, daemon: "Splayd",
                 context: AppContext, events: Events, socket: RestrictedSocket,
                 rpc: RpcService, logger: SplayLogger):
        self.job = job
        self.instance_id = instance_id
        self.daemon = daemon
        self.context = context
        self.events = events
        self.socket = socket
        self.rpc = rpc
        # The sandboxed filesystem materialises on first use: no bundled
        # workload touches it, and it is two containers per instance.
        self._fs: Optional[SandboxedFS] = None
        self.logger = logger
        self.me = NodeRef.from_address(socket.local)
        self.options: Dict[str, Any] = job.spec.options
        #: set by the daemon after the app factory runs
        self.app: Any = None

    @property
    def alive(self) -> bool:
        return self.context.alive

    @property
    def address(self) -> Address:
        return self.socket.local

    @property
    def fs(self) -> SandboxedFS:
        fs = self._fs
        if fs is None:
            limits, spec = self.daemon.limits, self.job.spec
            fs = self._fs = SandboxedFS(
                max_bytes=stricter_limit(limits.fs_max_bytes, spec.fs_max_bytes),
                max_open_files=spec.fs_max_files)
        return fs

    def _reap(self) -> None:
        """Context cleanup: the one death path every kill funnels through
        (controller stop, host failure, the app's own ``events.exit()``), so
        this is where the daemon's and the job's tables let the handle go."""
        self.daemon.instances.pop(self, None)  # frees the slot and the port
        self.socket.close()
        if self._fs is not None:
            self._fs.wipe()
        self.job.record_death(self)
        # instance <-> app is a cycle: dropping this side lets reference
        # counting free a dead application (the handle's counters stay).
        self.app = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<Instance {self.job.spec.name}.i{self.instance_id}@{self.address} {state}>"


class Splayd:
    """The daemon process of one host.

    Parameters
    ----------
    sim / network:
        Simulation substrate.  The daemon registers its :class:`Host` with
        the network on construction.
    ip:
        The host's address on the simulated network.
    limits:
        Local resource limits, merged with (and never loosened by) each
        job's own restrictions.
    """

    def __init__(self, sim: Simulator, network: Network, ip: str,
                 limits: Optional[SplaydLimits] = None):
        self.sim = sim
        self.network = network
        self.host = Host(ip)
        self.ip = self.host.ip
        self.limits = limits or SplaydLimits()
        #: live instances keyed by handle, in spawn order (``fail`` kills in
        #: this order); the reap hook pops a handle on any death.  Also the
        #: port table: a port is reserved iff a handle in here holds it.
        self.instances: Dict[Instance, None] = {}
        # One clock closure shared by every instance logger on this host
        # (one per spawn was measurable at 10k nodes).
        self._clock = lambda: self.sim.now
        network.add_host(self.host)

    # ---------------------------------------------------------------- queries
    @property
    def alive(self) -> bool:
        return self.host.alive

    def has_capacity(self) -> bool:
        cap = self.limits.max_instances
        return self.host.alive and (cap is None or len(self.instances) < cap)

    # ------------------------------------------------------------------ spawn
    def spawn(self, job: Job, instance_id: int) -> Instance:
        """Instantiate one sandboxed application instance for ``job``."""
        spec, limits = job.spec, self.limits
        if not self.host.alive:
            raise SplaydError(f"host {self.ip} is down")
        if not self.has_capacity():
            raise SplaydError(f"daemon {self.ip} is at capacity "
                              f"({limits.max_instances} instances)")
        address = self._allocate_address(spec.base_port)
        name = f"{spec.name}#{job.job_id}.i{instance_id}@{address.ip}:{address.port}"
        context = AppContext(self.sim, name=name)
        events = Events(self.sim, context)
        policy = limits.socket_policy
        if spec.socket_policy is not None:
            policy = policy.merged_with(spec.socket_policy)
        socket = RestrictedSocket(self.network, context, address,
                                  policy=policy, seed=self.sim.seed)
        logger = SplayLogger(
            source=name, level=spec.log_level, remote_sink=job.log_sink,
            max_bytes=stricter_limit(limits.log_max_bytes, spec.log_max_bytes),
            clock=self._clock, host=address.ip)
        rpc = RpcService(socket, events)
        if job.metrics is not None:
            # Per job like the log sink: one registry for every instance.
            rpc.bind_metrics(job.metrics)
        instance = Instance(job, instance_id, self, context, events, socket, rpc, logger)
        self.instances[instance] = None
        context.add_cleanup(instance._reap)
        try:
            app = spec.app_factory(instance)
        except Exception:
            # A broken application factory must not leave a half-built
            # instance holding a slot, port and listener on this daemon.
            context.kill("app factory failed")
            raise
        if context.alive:  # a factory may exit on its own: a dead handle keeps no app
            instance.app = app
        return instance

    def _allocate_address(self, base_port: int) -> Address:
        """The lowest free endpoint at or above ``base_port``: held by no
        live instance of this daemon (reserved from spawn to reap, listening
        or not) and by no listener on the network."""
        taken = set()
        for instance in self.instances:  # a comprehension is a frame per spawn
            taken.add(instance.socket.local.port)
        for port in range(base_port, 65536):
            if port not in taken:
                address = Address(self.ip, port)
                if not self.network.is_listening(address):
                    return address
        raise SplaydError(f"no free port on {self.ip} at or above {base_port}")

    # ------------------------------------------------------------------- stop
    def stop_instance(self, instance: Instance, reason: str = "stopped") -> None:
        """Tear one instance down (kills its context; cleanups do the rest)."""
        if instance.daemon is not self:
            raise SplaydError("instance belongs to another daemon")
        instance.context.kill(reason)

    def fail(self) -> int:
        """Simulate a host failure: every instance dies, traffic is dropped."""
        if not self.host.alive:
            return 0
        self.host.alive = False
        victims = list(self.instances)
        reason = f"host failure: {self.ip}"
        error: Optional[Exception] = None
        for instance in victims:
            try:
                self.stop_instance(instance, reason=reason)
            except Exception as exc:  # noqa: BLE001 - the whole host goes down first
                error = error or exc
        self.network.bandwidth.cancel_host(self.ip)
        if error is not None:
            raise error
        return len(victims)

    def recover(self) -> None:
        """Bring a failed host back (with no instances, like a fresh boot)."""
        self.host.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Splayd {self.ip} {'up' if self.alive else 'down'} "
                f"instances={len(self.instances)}>")
