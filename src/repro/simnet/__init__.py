"""Discrete-event network simulator substrate (the reproduction's "ns-2").

Public surface:

- :class:`Simulator` — the event loop.
- :class:`Packet`, :data:`MSS_BYTES` — wire units.
- :class:`DropTailQueue`, :class:`RedQueue` — queueing disciplines.
- :class:`Outage` — control-plane fault windows.
- :class:`Link` — serialization + propagation.
- :class:`Host`, :class:`Router` — nodes.
- :class:`DumbbellTopology`, :class:`DumbbellConfig` — the Figure-1 network.
- :class:`LinkMonitor`, :class:`ActiveFlowTracker` — instrumentation.
- :class:`RngStreams` — deterministic randomness.
"""

from .engine import EventHandle, SimulationError, Simulator
from .faults import Outage
from .link import Link, bdp_bytes
from .red import RedQueue
from .monitor import ActiveFlowTracker, LinkMonitor, LinkSample
from .node import Host, Node, Router
from .packet import (
    ACK_BYTES,
    HEADER_BYTES,
    MSS_BYTES,
    FlowIdAllocator,
    FlowSpec,
    Packet,
    PacketKind,
    make_ack_packet,
    make_data_packet,
)
from .queues import DropTailQueue, QueueStats
from .random import RngStreams
from .topology import (
    DEFAULT_ACCESS_BANDWIDTH_BPS,
    PAPER_BUFFER_BDP_MULTIPLE,
    DumbbellConfig,
    DumbbellTopology,
    ParkingLotTopology,
)

__all__ = [
    "ACK_BYTES",
    "DEFAULT_ACCESS_BANDWIDTH_BPS",
    "HEADER_BYTES",
    "MSS_BYTES",
    "PAPER_BUFFER_BDP_MULTIPLE",
    "ActiveFlowTracker",
    "DropTailQueue",
    "DumbbellConfig",
    "DumbbellTopology",
    "EventHandle",
    "FlowIdAllocator",
    "FlowSpec",
    "Host",
    "Link",
    "LinkMonitor",
    "LinkSample",
    "RedQueue",
    "Node",
    "Outage",
    "Packet",
    "PacketKind",
    "ParkingLotTopology",
    "QueueStats",
    "RngStreams",
    "Router",
    "SimulationError",
    "Simulator",
    "bdp_bytes",
    "make_ack_packet",
    "make_data_packet",
]
