"""The SPLAY runtime: daemons (``splayd``) and the controller (``splayctl``).

This package reproduces the deployment side of the system: "splayd daemons
run on participating hosts and instantiate applications in sandboxed
processes; the controller (splayctl) manages applications, selects hosts,
deploys code, and collects logs and statistics."

* :mod:`repro.runtime.splayd` — the per-host daemon: enforces the merged
  socket policy and filesystem quotas, spawns each application instance in a
  fresh :class:`~repro.sim.events_api.AppContext` when the controller
  calls ``spawn``, and tears instances down on request (controller
  command, churn, or host failure);
* :mod:`repro.runtime.jobstore` — the control plane's records: the
  :class:`CtlShard` record of each controller front-end, the bounded
  per-job :class:`LogCollector` queues and the placement planner;
* :mod:`repro.runtime.controller` — splayctl, the one control-plane
  object: the daemon registry, the jobs, their claims and churn managers,
  and every command sent to a daemon.
"""

from repro.runtime.splayd import Host, Instance, Splayd, SplaydError, SplaydLimits
from repro.runtime.jobstore import ControllerError, CtlShard, LogCollector
from repro.runtime.controller import Controller

__all__ = [
    "Controller",
    "ControllerError",
    "CtlShard",
    "Host",
    "Instance",
    "LogCollector",
    "Splayd",
    "SplaydError",
    "SplaydLimits",
]
