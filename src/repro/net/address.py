"""Network addressing.

An :class:`Address` identifies one application endpoint (one sandboxed SPLAY
application instance listening on one port of a host).  A :class:`NodeRef` is
the piece of information applications exchange about each other — the
``{ip, port, id}`` tables seen throughout the paper's Chord listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True, order=True, slots=True)
class Address:
    """An ``ip:port`` endpoint on the simulated network."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse ``"10.0.0.1:20000"`` into an :class:`Address`."""
        ip, _, port = text.rpartition(":")
        if not ip or not port:
            raise ValueError(f"malformed address: {text!r}")
        return cls(ip=ip, port=int(port))

    def to_dict(self) -> dict:
        return {"ip": self.ip, "port": self.port}


#: Memoized Address objects for NodeRef.address.  Addresses are frozen and
#: value-compared, so sharing one object per (ip, port) is safe; every RPC
#: attempt resolves its destination NodeRef to an Address, and constructing
#: a frozen dataclass per resolution was measurable at 10k nodes.  Bounded
#: the same way as the serializer's size cache: distinct endpoints scale
#: with nodes, not with messages, but a runaway workload drops the table
#: wholesale rather than growing it forever.
_ADDRESS_CACHE: dict = {}
_ADDRESS_CACHE_MAX = 1 << 16


@dataclass(frozen=True, slots=True)
class NodeRef:
    """A reference to a participating node, as exchanged by applications.

    This mirrors the ``n = {ip, port, id}`` structure of the paper's Chord
    listing (Listing 3, ``job.me``).  The ``id`` field is optional: plain
    membership protocols (Cyclon, epidemic broadcast) only use the address,
    whereas DHTs carry their ring/key-space identifier.  Both endpoint
    classes are slotted: overlay tables hold thousands of them.
    """

    ip: str
    port: int
    id: Optional[int] = field(default=None, compare=False)

    @property
    def address(self) -> Address:
        key = (self.ip, self.port)
        address = _ADDRESS_CACHE.get(key)
        if address is None:
            if len(_ADDRESS_CACHE) >= _ADDRESS_CACHE_MAX:
                _ADDRESS_CACHE.clear()
            address = _ADDRESS_CACHE[key] = Address(self.ip, self.port)
        return address

    def with_id(self, node_id: int) -> "NodeRef":
        """Return a copy of this reference carrying ``node_id``."""
        return NodeRef(self.ip, self.port, node_id)

    @classmethod
    def from_address(cls, address: Address, node_id: Optional[int] = None) -> "NodeRef":
        return cls(address.ip, address.port, node_id)

    @classmethod
    def coerce(cls, value: Any) -> "NodeRef":
        """Build a :class:`NodeRef` from a NodeRef, Address, dict or string."""
        if isinstance(value, NodeRef):
            return value
        if isinstance(value, Address):
            return cls.from_address(value)
        if isinstance(value, dict):
            return cls(ip=value["ip"], port=int(value["port"]), id=value.get("id"))
        if isinstance(value, str):
            return cls.from_address(Address.parse(value))
        raise TypeError(f"cannot coerce {value!r} to NodeRef")

    def to_dict(self) -> dict:
        data = {"ip": self.ip, "port": self.port}
        if self.id is not None:
            data["id"] = self.id
        return data

    def __str__(self) -> str:
        if self.id is not None:
            return f"{self.ip}:{self.port}#{self.id}"
        return f"{self.ip}:{self.port}"
