"""Message envelope delivered by the simulated network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.address import Address
from repro.net.bwalloc import LOOKUP


@dataclass(slots=True)
class Message:
    """A single datagram/stream message travelling between two endpoints.

    ``size`` is the on-the-wire size in bytes (payload after ``llenc``/JSON
    serialisation plus a small framing overhead); it drives both the
    bandwidth model and host processing delays.
    """

    # ``size`` must be non-negative; the network layer only builds messages
    # from estimated or validated sizes, so there is no per-message check
    # here (a __post_init__ hook costs one Python call per simulated message).
    src: Address
    dst: Address
    payload: Any
    size: int
    kind: str = "data"
    sent_at: float = 0.0
    #: bwalloc priority class (CONTROL for RPC, LOOKUP for protocol messages);
    #: per-class traffic accounting keys off it
    priority: int = LOOKUP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Message {self.kind} {self.src}->{self.dst} {self.size}B>"
