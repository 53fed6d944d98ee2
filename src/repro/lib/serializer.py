"""Wire sizes: what SPLAY's ``llenc`` + ``json`` encoding would put on the wire.

SPLAY's ``llenc`` library "automatically performs message demarcation,
computing buffer sizes and waiting for all packets of a message before
delivery.  It uses the ``json`` library to automate encoding of any type of
data structures using a compact and standardized data-interchange format."

Simulated messages are never encoded: the network hands the payload object
itself to the receiver and charges transmission time by its size.  This
module provides that size — :func:`estimate_size` (the compact JSON length
plus the framing overhead) and :func:`envelope_size` (a fixed-key envelope
sized once) — for the repository's value types too
(:class:`~repro.net.address.Address`, :class:`~repro.net.address.NodeRef`).
"""

from __future__ import annotations

from typing import Any

from repro.net.address import Address, NodeRef

#: framing overhead, in bytes, added to every message (length prefix + separators)
FRAMING_OVERHEAD = 10


class SerializationError(Exception):
    """Raised for a value that has no JSON form (it could never be sent)."""


#: Memoized sizes of NodeRef / Address values.  Node references repeat
#: enormously across a run (every RPC envelope, successor list and routing
#: table carries them), so their sizes are computed once per distinct
#: (ip, port, id) and reused — the cached value is exactly what the walk
#: would return.  Bounded: the table is dropped wholesale if it ever grows
#: past the cap (distinct refs scale with nodes, not with messages).
_REF_SIZE_CACHE: dict = {}
_REF_SIZE_CACHE_MAX = 1 << 16


def _approx_size(value: Any) -> int:
    """Approximate the JSON-encoded length of ``value`` without encoding it.

    Called once per simulated message (the network models charge transmission
    time by size), so this avoids the full ``json.dumps`` walk that used to
    dominate the send path.  The estimate tracks the compact-separator JSON
    length closely (string escaping and non-ASCII expansion are ignored);
    determinism is what matters — the same value always yields the same size.

    Scalar children of containers are sized inline (most leaves are strings
    and small ints, and the recursive call per leaf was the top cost of the
    whole send path at high node counts).
    """
    kind = type(value)
    if kind is str:
        return len(value) + 2
    if kind is int:
        return len(str(value))
    if kind is bool or value is None:
        return 4 + (value is False)
    if kind is float:
        return len(repr(value))
    if kind is dict:
        if not value:
            return 2
        total = 1 + len(value)  # braces + (len-1) commas + closing bracket
        for key, item in value.items():
            # JSON stringifies scalar non-str keys ({1: ...} -> {"1": ...})
            if type(key) is not str:
                if key is None or isinstance(key, (int, float, bool)):
                    key = str(key)
                else:
                    raise SerializationError(
                        f"cannot serialise dict key {type(key).__name__}: {key!r}")
            item_kind = type(item)
            if item_kind is str:
                total += len(key) + len(item) + 5  # quotes ×2 + colon
            elif item_kind is int:
                total += len(key) + 3 + len(str(item))
            elif item_kind is NodeRef:
                # Inlined cache hit (the common envelope field); misses and
                # unhashable ids fall back to the full walk below.
                size = (_REF_SIZE_CACHE.get((item.ip, item.port, item.id))
                        if type(item.id) in (int, str, type(None)) else None)
                total += len(key) + 3 + (size if size is not None
                                         else _approx_size(item))
            else:
                total += len(key) + 3 + _approx_size(item)  # quotes + colon
        return total
    if kind is list or kind is tuple:
        if not value:
            return 2
        total = 1 + len(value)
        for item in value:
            item_kind = type(item)
            if item_kind is str:
                total += len(item) + 2
            elif item_kind is int:
                total += len(str(item))
            elif item_kind is NodeRef:
                size = (_REF_SIZE_CACHE.get((item.ip, item.port, item.id))
                        if type(item.id) in (int, str, type(None)) else None)
                total += size if size is not None else _approx_size(item)
            else:
                total += _approx_size(item)
        return total
    if kind is NodeRef:
        # {"__noderef__":{"ip":...,"port":...,"id":...}}
        try:
            key = (value.ip, value.port, value.id)
            size = _REF_SIZE_CACHE.get(key)
        except TypeError:  # unhashable id: size it directly
            return 16 + _approx_size(value.to_dict())
        if size is None:
            size = 16 + _approx_size(value.to_dict())
            if len(_REF_SIZE_CACHE) >= _REF_SIZE_CACHE_MAX:
                _REF_SIZE_CACHE.clear()
            _REF_SIZE_CACHE[key] = size
        return size
    if kind is Address:
        key = (value.ip, value.port)
        size = _REF_SIZE_CACHE.get(key)
        if size is None:
            size = 16 + _approx_size(value.to_dict())
            if len(_REF_SIZE_CACHE) >= _REF_SIZE_CACHE_MAX:
                _REF_SIZE_CACHE.clear()
            _REF_SIZE_CACHE[key] = size
        return size
    raise SerializationError(f"cannot serialise {type(value).__name__}: {value!r}")


def estimate_size(value: Any) -> int:
    """Wire size (bytes) of ``value`` once serialised, including framing overhead."""
    return _approx_size(value) + FRAMING_OVERHEAD


def envelope_size(template: dict) -> int:
    """Wire size of a fixed-key envelope, not counting its ``None`` slots.

    Adding ``_approx_size`` of each value put in a ``None`` slot gives
    :func:`estimate_size` of the filled envelope; a ``""`` placeholder keeps
    the quotes, so a string slot adds just ``len(text)``.
    """
    return estimate_size(template) - 4 * sum(v is None for v in template.values())

