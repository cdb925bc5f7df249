"""Packet and flow-identification primitives.

Packets are lightweight mutable objects; a simulation at 15 Mbps for a few
hundred simulated seconds creates hundreds of thousands of them, so the
class uses ``__slots__`` and avoids per-packet dict allocations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

#: Maximum segment size used throughout the reproduction, in bytes.  The
#: paper's ns-2 experiments use 1000-byte packets plus a 40-byte header;
#: we use the common 1500-byte MTU convention with a 1460-byte MSS.
MSS_BYTES = 1460

#: Bytes of TCP/IP header accounted per segment.
HEADER_BYTES = 40

#: Size of a pure ACK packet, in bytes.
ACK_BYTES = 40


class PacketKind(Enum):
    """What a packet carries."""

    DATA = "data"
    ACK = "ack"


FlowKey = Tuple[str, int, str, int]
"""The classic 4-tuple <src ip, src port, dst ip, dst port>."""


#: Packet ids, restarted at 1 by every :class:`~repro.simnet.engine.Simulator`
#: so an id names the same packet of a run in any process.
_packet_ids = itertools.count(1)


class Packet:
    """A simulated packet.

    Attributes
    ----------
    flow_id:
        Integer id of the owning flow (dense, assigned by the flow factory).
    seq:
        For DATA: byte offset of the first payload byte.  For ACK: the
        cumulative acknowledgement (next expected byte).
    size_bytes:
        Wire size, including headers; used for serialization and queueing.
    sent_at:
        Time the packet left the sender (stamped by the transport agent).
    """

    __slots__ = (
        "packet_id",
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "size_bytes",
        "payload_bytes",
        "sent_at",
        "echo_timestamp",
        "is_retransmit",
        "priority",
        "sack_blocks",
    )

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        src: str,
        dst: str,
        seq: int,
        payload_bytes: int,
        *,
        sent_at: float = 0.0,
        is_retransmit: bool = False,
        priority: int = 0,
    ) -> None:
        self.packet_id = next(_packet_ids)
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.size_bytes = (
            payload_bytes + HEADER_BYTES if kind is PacketKind.DATA else ACK_BYTES
        )
        self.sent_at = sent_at
        # None means "no timestamp echoed", which is distinct from a
        # legitimate echo of 0.0 (a packet sent at sim time zero) — see
        # TcpSender._process_ack, which must RTT-sample the latter.
        self.echo_timestamp: Optional[float] = None
        self.is_retransmit = is_retransmit
        self.priority = priority
        # SACK blocks on ACKs: received byte ranges above the cumulative
        # ACK, as (start, end) tuples (RFC 2018, up to 4 blocks).
        self.sack_blocks: Tuple[Tuple[int, int], ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.value} flow={self.flow_id} seq={self.seq} "
            f"{self.size_bytes}B {self.src}->{self.dst})"
        )


def make_data_packet(
    flow_id: int,
    src: str,
    dst: str,
    seq: int,
    payload_bytes: int = MSS_BYTES,
    *,
    priority: int = 0,
) -> Packet:
    """Construct a DATA packet."""
    return Packet(PacketKind.DATA, flow_id, src, dst, seq, payload_bytes, priority=priority)


def make_ack_packet(
    flow_id: int,
    src: str,
    dst: str,
    cumulative_ack: int,
) -> Packet:
    """Construct an ACK packet acknowledging all bytes below ``cumulative_ack``."""
    return Packet(PacketKind.ACK, flow_id, src, dst, cumulative_ack, 0)


@dataclass(frozen=True)
class FlowSpec:
    """Static description of a flow: its 4-tuple and identity."""

    flow_id: int
    src: str
    src_port: int
    dst: str
    dst_port: int

    @property
    def key(self) -> FlowKey:
        """The <src ip, src port, dst ip, dst port> 4-tuple."""
        return (self.src, self.src_port, self.dst, self.dst_port)

    def reversed(self) -> "FlowSpec":
        """The flow spec of the reverse (ACK) direction."""
        return FlowSpec(
            flow_id=self.flow_id,
            src=self.dst,
            src_port=self.dst_port,
            dst=self.src,
            dst_port=self.src_port,
        )


class FlowIdAllocator:
    """Dense allocator for flow ids, one per simulation."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next_id(self) -> int:
        """Return a fresh flow id."""
        return next(self._counter)
