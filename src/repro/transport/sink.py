"""TCP receiver (sink): reassembly and cumulative ACK generation.

The sink ACKs every arriving data packet (ns-2's default ``TCPSink``
behaviour), echoing the data packet's send timestamp so the sender can
take RTT samples, and propagating the retransmit flag so Karn's rule can
be applied.
"""

from __future__ import annotations

from typing import List, Tuple

from ..simnet.engine import Simulator
from ..simnet.node import Host
from ..simnet.packet import FlowSpec, Packet, PacketKind

#: Module constants so the per-packet kind checks are identity compares.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class ByteIntervalSet:
    """A set of received byte ranges with O(holes) merging.

    Intervals are half-open ``[start, end)`` and kept sorted and disjoint.
    The sink uses it to compute the cumulative ACK in the presence of
    holes left by drops.  Ranges arrive at or near the top, so insertion
    searches from the tail and edits in place: extending the last interval
    is O(1).
    """

    def __init__(self) -> None:
        self._intervals: List[Tuple[int, int]] = []
        self.total_bytes = 0  #: running total of covered bytes

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging with any ranges it overlaps or
        abuts; returns the number of bytes newly covered."""
        if end <= start:
            return 0
        intervals = self._intervals
        if intervals and intervals[-1][1] == start:
            # The in-order case: the range extends the top one.
            intervals[-1] = (intervals[-1][0], end)
            self.total_bytes += end - start
            return end - start
        # intervals[first:last] are the ranges the new one touches.
        last = len(intervals)
        while last and intervals[last - 1][0] > end:
            last -= 1
        first = last
        covered = 0
        while first and intervals[first - 1][1] >= start:
            first -= 1
            lo, hi = intervals[first]
            covered += hi - lo
        if first < last:
            start = min(start, intervals[first][0])
            end = max(end, intervals[last - 1][1])
        intervals[first:last] = [(start, end)]
        gained = end - start - covered
        self.total_bytes += gained
        return gained

    def contiguous_from(self, origin: int = 0) -> int:
        """Highest byte such that ``[origin, result)`` is fully covered.

        Ranges are disjoint and non-adjacent, so that is the end of the one
        holding ``origin``; from 0 the first range answers.
        """
        for lo, hi in self._intervals:
            if hi > origin:
                return hi if lo <= origin else origin
        return origin

    def covers(self, offset: int) -> bool:
        """Whether byte ``offset`` lies inside a covered range."""
        for lo, hi in self._intervals:
            if lo <= offset < hi:
                return True
            if lo > offset:
                break
        return False

    def prune_below(self, origin: int) -> None:
        """Drop coverage below ``origin`` (bytes cumulatively ACKed)."""
        intervals = self._intervals
        while intervals and intervals[0][0] < origin:
            lo, hi = intervals[0]
            if hi <= origin:
                del intervals[0]
                self.total_bytes -= hi - lo
            else:
                intervals[0] = (origin, hi)
                self.total_bytes -= origin - lo

    def intervals(self) -> List[Tuple[int, int]]:
        """The covered ranges, sorted and disjoint."""
        return list(self._intervals)


class TcpSink:
    """Receiver endpoint for one flow: reassembles and ACKs."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
    ) -> None:
        self.sim = sim
        self.host = host
        self.spec = spec
        self.received = ByteIntervalSet()
        self.rcv_nxt = 0
        host.register_agent(spec.flow_id, self)

    def handle_packet(self, packet: Packet) -> None:
        """Process an arriving DATA packet and emit a cumulative ACK."""
        if packet.kind is not _DATA:
            return
        received = self.received
        received.add(packet.seq, packet.seq + packet.payload_bytes)
        self.rcv_nxt = rcv_nxt = received.contiguous_from(0)
        spec = self.spec
        ack = Packet(_ACK, spec.flow_id, spec.dst, spec.src, rcv_nxt, 0)
        ack.echo_timestamp = packet.sent_at
        ack.is_retransmit = packet.is_retransmit
        if received.total_bytes != rcv_nxt:  # something is held out of order
            ack.sack_blocks = self._sack_blocks()
        self.host.send(ack)

    def _sack_blocks(self, max_blocks: int = 4) -> tuple:
        """Received ranges above the cumulative ACK (RFC 2018 style)."""
        blocks = [
            (lo, hi)
            for lo, hi in self.received._intervals
            if hi > self.rcv_nxt
        ]
        return tuple(blocks[:max_blocks])

    def close(self) -> None:
        """Unregister from the host."""
        self.host.unregister_agent(self.spec.flow_id)
