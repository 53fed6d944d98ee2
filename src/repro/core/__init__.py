"""Controller-side core data structures.

This package holds the pieces shared between the controller (``splayctl``)
and the daemons (``splayd``) that are not tied to the simulation substrate:

* :mod:`repro.core.blacklist` — IP/mask matching used by the socket policy;
* :mod:`repro.core.jobs` — job descriptors, job records and job state;
* :mod:`repro.core.churn` — the churn script language, availability traces
  and the churn manager replaying them against a running job.
"""

from repro.core.blacklist import Blacklist
from repro.core.jobs import Job, JobSpec, JobState
from repro.core.churn import ChurnAction, ChurnManager, parse_churn_script

__all__ = [
    "Blacklist",
    "ChurnAction",
    "ChurnManager",
    "Job",
    "JobSpec",
    "JobState",
    "parse_churn_script",
]
