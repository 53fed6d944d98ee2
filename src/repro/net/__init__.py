"""Simulated network substrate.

This package provides the network on which SPLAY daemons and applications
communicate: addressing, message-level delivery with configurable latency and
loss models, a flow-level (max-min fair) bandwidth model for bulk transfers,
and topology generation for ModelNet-style emulated networks.
"""

from repro.net.address import Address, NodeRef
from repro.net.message import Message
from repro.net.latency import (
    CompositeLatency,
    ConstantLatency,
    LatencyModel,
    PairwiseLatency,
    TopologyLatency,
)
from repro.net.loss import LossModel
from repro.net.hostload import HostLoadModel
from repro.net.bandwidth import BandwidthModel, Transfer
from repro.net.network import Listener, Network, NetworkStats
from repro.net.topology import TransitStubTopology

__all__ = [
    "Address",
    "BandwidthModel",
    "CompositeLatency",
    "ConstantLatency",
    "HostLoadModel",
    "LatencyModel",
    "Listener",
    "LossModel",
    "Message",
    "Network",
    "NetworkStats",
    "NodeRef",
    "PairwiseLatency",
    "TopologyLatency",
    "Transfer",
    "TransitStubTopology",
]
