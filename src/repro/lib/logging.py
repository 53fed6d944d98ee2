"""The ``log`` library: logging to a collector.

"The log library allows the developer to print information either locally
(screen, file) or, more interestingly, send it over the network to a log
collector managed by the controller.  If need be, the amount of data sent to
the log collector can be restricted by a splayd, as instructed by the
controller."

A logger hands each record to its job's collector
(:class:`~repro.runtime.jobstore.LogCollector`), which counts every record
and keeps only a bounded window of the newest: a record outlives its
instance only as long as the window holds it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional


class LogLevel(enum.IntEnum):
    """Log severity levels, ordered."""

    DEBUG = 10
    INFO = 20
    WARN = 30
    ERROR = 40

    @classmethod
    def coerce(cls, value: "LogLevel | str | int") -> "LogLevel":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls[value.upper()]
        return cls(value)


@dataclass(slots=True)
class LogRecord:
    """One structured log entry produced by an application instance.

    Carries the simulated emission time, the severity, the emitting
    instance's ``source`` label and ``host`` address, and — once routed
    through a collector — the job id.  ``fields`` holds optional structured
    key/value context attached at the call site.
    """

    time: float
    level: LogLevel
    source: str
    message: str
    job_id: Optional[int] = None
    #: address of the emitting host (``""`` for loggers outside a daemon)
    host: str = ""
    #: structured context (``logger.info("joined", ring=7)``), or None
    fields: Optional[dict] = None


@dataclass(slots=True)
class LogBudget:
    """Restriction on the amount of data an instance may ship to the collector."""

    max_bytes: int
    sent_bytes: int = 0

    def admit(self, record_size: int) -> bool:
        if self.sent_bytes + record_size > self.max_bytes:
            return False
        self.sent_bytes += record_size
        return True


class SplayLogger:
    """Per-instance logger that ships its records to a collector.

    Parameters
    ----------
    source:
        Identifier of the emitting instance (e.g. ``"job3/10.0.0.7:30001"``).
    level:
        Minimum severity to record.
    remote_sink:
        Where records go (the daemon wires the job's
        :class:`~repro.runtime.jobstore.LogCollector`): its ``ship`` takes
        each admitted :class:`LogRecord`, its ``refused`` counts the records
        the budget turned away.  The logger keeps no record itself.
    max_bytes:
        Restriction (in bytes) on remote shipping, enforced by the daemon;
        the :class:`LogBudget` that counts against it is allocated on the
        first shipped record.  ``None`` ships every record and allocates no
        budget.
    clock:
        Callable returning the current virtual time.
    """

    __slots__ = ("source", "host", "level", "remote_sink", "max_bytes",
                 "_budget", "clock")

    def __init__(self, source: str, level: LogLevel | str = LogLevel.INFO,
                 remote_sink: Optional[Any] = None,
                 max_bytes: Optional[int] = None,
                 clock: Callable[[], float] = lambda: 0.0, host: str = ""):
        self.source = source
        self.host = host
        self.level = LogLevel.coerce(level)
        self.remote_sink = remote_sink
        self.max_bytes = max_bytes
        # The shipping budget is allocated on first use, and only under a
        # limit: at 10k nodes, most instances log a handful of records (or
        # none).
        self._budget: Optional[LogBudget] = None
        self.clock = clock

    # -------------------------------------------------------------- emitters
    def log(self, level: LogLevel | str, message: Any,
            **fields: Any) -> Optional[LogRecord]:
        """Record ``message`` at ``level``; returns the record if admitted.

        Keyword arguments become the record's structured ``fields`` —
        ``logger.info("lookup done", hops=4)`` — shipped to the collector
        with the record itself (the route is unchanged: same sink, same
        bounded queue, same budget).
        """
        if level.__class__ is not LogLevel:
            level = LogLevel.coerce(level)
        if level < self.level:
            return None
        record = LogRecord(time=self.clock(), level=level, source=self.source,
                           message=str(message), host=self.host,
                           fields=fields or None)
        sink = self.remote_sink
        if sink is not None:
            max_bytes = self.max_bytes
            if max_bytes is not None:
                budget = self._budget
                if budget is None:
                    budget = self._budget = LogBudget(max_bytes)
                if not budget.admit(len(record.message) + 32):
                    sink.refused += 1
                    return record
            sink.ship(record)
        return record

    def debug(self, message: Any, **fields: Any) -> Optional[LogRecord]:
        return self.log(LogLevel.DEBUG, message, **fields)

    def info(self, message: Any, **fields: Any) -> Optional[LogRecord]:
        return self.log(LogLevel.INFO, message, **fields)

    def warn(self, message: Any, **fields: Any) -> Optional[LogRecord]:
        return self.log(LogLevel.WARN, message, **fields)

    def error(self, message: Any, **fields: Any) -> Optional[LogRecord]:
        return self.log(LogLevel.ERROR, message, **fields)

    print = info  # the paper's applications use log.print

    # --------------------------------------------------------------- control
    def set_level(self, level: LogLevel | str) -> None:
        """Dynamically adjust the minimum severity."""
        self.level = LogLevel.coerce(level)
