"""The SPLAY standard libraries.

These modules mirror the library stack in Figure 5 of the paper:

* :mod:`repro.lib.serializer` — wire sizes: what ``llenc`` + ``json``
  would put on the wire, charged by the network models;
* :mod:`repro.lib.rpc` — remote procedure calls (:class:`RpcService`:
  ``call``, ``a_call``, ``send``, ``ping``);
* :mod:`repro.lib.sbsocket` — the restricted (sandboxed) socket layer;
* :mod:`repro.lib.sbfs` — the sandboxed virtual filesystem;
* :mod:`repro.lib.logging` — logging to the job's collector;
* :mod:`repro.lib.crypto` — hashing and digest helpers;
* :mod:`repro.lib.misc` — duration parsing and the job's member directory;
* :mod:`repro.lib.ring` — identifier-ring arithmetic (``between`` et al.).
"""

from repro.lib.ring import between, hash_key, ring_add, ring_distance
from repro.lib.serializer import SerializationError, estimate_size
from repro.lib.rpc import RpcError, RpcService, RpcStats, RpcTimeout
from repro.lib.sbfs import SandboxedFS, SandboxFSError
from repro.lib.sbsocket import (
    RestrictedSocket,
    SocketPolicy,
    SocketRestrictionError,
    SocketStats,
)
from repro.lib.logging import LogBudget, LogLevel, LogRecord, SplayLogger
from repro.lib import crypto, misc

__all__ = [
    "LogBudget",
    "LogLevel",
    "LogRecord",
    "RestrictedSocket",
    "RpcError",
    "RpcService",
    "RpcStats",
    "RpcTimeout",
    "SandboxFSError",
    "SandboxedFS",
    "SerializationError",
    "SocketPolicy",
    "SocketRestrictionError",
    "SocketStats",
    "SplayLogger",
    "between",
    "crypto",
    "estimate_size",
    "hash_key",
    "misc",
    "ring_add",
    "ring_distance",
]
