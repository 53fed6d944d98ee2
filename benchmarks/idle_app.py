"""The benchmark-owned no-op application of ``deploy_churn_idle``.

It sends nothing: after a sandbox boot delay it logs one line and sets
``joined``.  Everything the workload costs is therefore the control plane
(placement, spawn, kill, log shipping, the job store), which is the point.
The layer table counts this file as ``apps.workload``.
"""

from __future__ import annotations


class BootLedger:
    """What the benchmark keeps of the instances: counts and latencies only.

    Holding the apps themselves would keep every killed instance's sandbox
    alive and turn ``peak_rss_mb`` into a measure of the benchmark.
    """

    def __init__(self):
        self.created = 0
        #: simulated seconds from the controller's request to ``joined``
        self.boot_latencies: list = []


class IdleApp:
    """One instance: boots for ``boot_delay`` simulated seconds, then idles."""

    def __init__(self, instance, boot_delay: float, ledger: BootLedger):
        self.instance = instance
        self.ledger = ledger
        self.joined = False
        #: the control plane is instantaneous, so creation time is the time
        #: the controller requested this start
        self.requested_at = instance.events.now()
        ledger.created += 1
        instance.events.thread(self._up, delay=boot_delay)

    def _up(self) -> None:
        self.joined = True
        self.ledger.boot_latencies.append(self.instance.events.now() - self.requested_at)
        self.instance.logger.info(f"instance {self.instance.instance_id} up")


def idle_factory(boot_delays: list, ledger: BootLedger):
    """Application factory for ``JobSpec.app_factory``.

    The boot delay is looked up by instance id in the generated table, so it
    does not depend on the order in which daemons spawn instances.
    """

    def _factory(instance) -> IdleApp:
        return IdleApp(instance, boot_delays[instance.instance_id % len(boot_delays)], ledger)

    return _factory
