"""Deterministic random-substream derivation.

Reproducibility of every experiment is a core goal of SPLAY ("allow
comparison of competing algorithms under the very same churn scenarios").
All stochastic components in this reproduction draw from substreams derived
deterministically from a root seed and a tuple of labels, so that e.g. the
latency model and the workload generator never perturb each other's draws.

Every hash a run computes comes from here: :func:`sha1` (node and key ids,
:func:`repro.lib.ring.hash_key`) and :func:`sha256` (these seeds, and
:func:`repro.apps.harness.report_digest`). They are the interpreter's
built-in SHA modules, as :mod:`random` takes its ``sha512``: ``hashlib``
computes the very same digests, but would map OpenSSL's libcrypto into every
run for a few thousand short hashes.
"""

from __future__ import annotations

import random
from typing import Any

try:
    from _sha1 import sha1
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        from _sha256 import sha256  # 3.10, 3.11
except ImportError:  # an interpreter built without its own SHA modules
    from hashlib import sha1, sha256


def substream(seed: int, *labels: Any) -> random.Random:
    """Return a :class:`random.Random` deterministically derived from ``seed`` and ``labels``.

    Examples
    --------
    >>> a = substream(42, "latency", 3)
    >>> b = substream(42, "latency", 3)
    >>> a.random() == b.random()
    True
    >>> substream(42, "latency", 3).random() != substream(42, "loss", 3).random()
    True
    """
    digest = sha256()
    digest.update(str(seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    derived_seed = int.from_bytes(digest.digest()[:8], "big")
    return random.Random(derived_seed)
