"""Identifier-ring arithmetic (part of the ``misc`` library in the paper).

The paper's Chord listing relies on ``misc.between_c`` to decide whether an
identifier falls within a (possibly wrapping) interval of the ring.  The same
primitives are used by Pastry's leafset management and by the cooperative web
cache's key placement.
"""

from __future__ import annotations

from typing import Union

from repro.sim.rng import sha1

Bytes = Union[bytes, str]


def between(value: int, low: int, high: int, include_low: bool = False,
            include_high: bool = False, modulus: int | None = None) -> bool:
    """True if ``value`` lies in the ring interval from ``low`` to ``high``.

    The interval is traversed clockwise from ``low`` to ``high``; it may wrap
    around zero.  When ``low == high`` the interval covers the whole ring
    (excluding the endpoints unless included), which matches the behaviour
    needed by Chord when a node is its own successor.
    """
    if modulus is not None:
        value %= modulus
        low %= modulus
        high %= modulus
    if value == low:
        return include_low or (low == high and include_high)
    if value == high:
        return include_high
    if low == high:
        # Whole-ring interval: everything except the endpoint qualifies.
        return True
    if low < high:
        return low < value < high
    # Wrapping interval.
    return value > low or value < high


def ring_distance(a: int, b: int, bits: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on a ``2**bits`` ring."""
    modulus = 1 << bits
    return (b - a) % modulus


def ring_add(a: int, offset: int, bits: int) -> int:
    """``a + offset`` modulo the ring size."""
    return (a + offset) % (1 << bits)


def hash_key(data: Bytes, bits: int = 160) -> int:
    """Map arbitrary data to a ``bits``-wide identifier using SHA-1.

    This is the standard consistent-hashing step used by Chord/Pastry to
    assign node identifiers (hash of ``ip:port``) and key identifiers (hash
    of the application key).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    digest = sha1(data).digest()
    value = int.from_bytes(digest, "big")
    if bits >= 160:
        return value
    return value >> (160 - bits)


def numeric_distance(a: int, b: int, bits: int) -> int:
    """Shortest distance between two identifiers on a ``2**bits`` ring.

    Unlike :func:`ring_distance` this is direction-free — it is the metric
    Pastry uses for leaf-set membership and final-hop ownership (the node
    *numerically closest* to the key owns it).
    """
    modulus = 1 << bits
    forward = (b - a) % modulus
    return min(forward, modulus - forward)


def shared_prefix_length(a: int, b: int, digits: int, base_bits: int) -> int:
    """Length of the common prefix of two identifiers written in base ``2**base_bits``.

    Used by Pastry's prefix routing: identifiers are treated as ``digits``
    digits of ``base_bits`` bits each (most significant digit first).
    """
    differing = (a ^ b) & ((1 << digits * base_bits) - 1)
    if not differing:
        return digits
    # The most significant differing bit names the first differing digit.
    return digits - 1 - (differing.bit_length() - 1) // base_bits


def digit_at(identifier: int, position: int, digits: int, base_bits: int) -> int:
    """The ``position``-th most significant digit of ``identifier``.

    ``position`` counts from 0 (most significant) to ``digits - 1``.
    """
    if not 0 <= position < digits:
        raise ValueError(f"digit position out of range: {position}")
    shift = (digits - 1 - position) * base_bits
    return (identifier >> shift) & ((1 << base_bits) - 1)
