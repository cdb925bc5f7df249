"""Point-to-point links.

A :class:`Link` is unidirectional: it serializes packets at a fixed
bandwidth, holds excess arrivals in an attached queue, and delivers each
packet to the destination node after a propagation delay.  Bidirectional
connectivity is modelled as two independent links (as in ns-2's duplex
links).

A hop costs one event: the end of serialization is a time
(``_busy_until``), not an event, so an idle link posts only the
delivery.  One ``_dequeue_next`` event, at ``_busy_until``, exists exactly
while the queue is non-empty.  Neither is ever cancelled, so the link
pushes both as the handle-free ``(time, seq, callback, args)`` records of
:meth:`~repro.simnet.engine.Simulator.post_at`, without its time check:
a link's times are now plus a non-negative delay.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import TYPE_CHECKING, Optional

from .. import telemetry as _telemetry
from .engine import Simulator
from .packet import Packet, PacketKind
from .queues import DropTailQueue

#: Module constant so the hot-path DATA check is one identity compare.
_DATA = PacketKind.DATA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node


class Link:
    """A unidirectional link with serialization, queueing, and propagation.

    Parameters
    ----------
    sim:
        The simulator the link schedules on.
    name:
        Human-readable identifier (e.g. ``"bottleneck"``).
    bandwidth_bps:
        Transmission rate in bits per second.
    delay_s:
        One-way propagation delay in seconds.
    queue:
        The attached queue discipline.  If None, an unbounded
        :class:`DropTailQueue` is created.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
    ) -> None:
        # Negated so a NaN fails too.
        if not 0 < bandwidth_bps < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth_bps}")
        if not 0 <= delay_s < math.inf:
            raise ValueError(f"propagation delay must be finite and >= 0, got {delay_s}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue(None, lambda: sim.now)
        self.dst_node: Optional["Node"] = None
        # The transmitter is serializing a ``_tx_bytes`` packet until
        # ``_busy_until``.  Its ledger is committed when serialization
        # starts and settled on read (the ``*_transmitted`` properties).
        self._busy_until = 0.0
        self._tx_bytes = 0
        self._dequeue_armed = False
        self._bytes_committed = 0
        self._packets_committed = 0
        self._busy_seconds = 0.0
        # Conservation ledger (see repro.simcheck.conservation): every
        # packet offered to the link is eventually transmitted, queued,
        # dropped/flushed by the queue, or in serialization; every
        # transmitted packet is delivered unless a fault absorbs it or it
        # is still propagating.  Plain int increments, negligible cost.
        self.bytes_offered = 0
        self.packets_offered = 0
        self.packets_delivered = 0
        self.created_at = sim.now
        # Hot-path bindings: serialization happens once per packet per
        # link, so precompute the per-byte wire time, and bind the
        # calendar and its sequence counter the records are pushed with.
        self._seconds_per_byte = 8.0 / bandwidth_bps
        self._calendar = sim._heap
        self._seq = sim._seq

    def attach(self, dst_node: "Node") -> None:
        """Set the node that receives packets at the far end."""
        self.dst_node = dst_node

    def send(self, packet: Packet) -> None:
        """Offer ``packet`` to the link.

        If the transmitter is idle the packet goes straight to the wire;
        otherwise it joins the queue (and may be dropped there).  A packet
        arriving at the instant the wire clears, with nothing queued,
        meets an idle transmitter.
        """
        size = packet.size_bytes
        self.packets_offered += 1
        self.bytes_offered += size
        # The clock field, not the ``now`` property; read once per hop (a
        # queue attached to a link is on the link's clock and is handed it).
        now = self.sim._now
        if self._dequeue_armed or self._busy_until > now:
            if self.queue.enqueue(packet, now):
                if not self._dequeue_armed:
                    self._dequeue_armed = True
                    record = (self._busy_until, next(self._seq), self._dequeue_next, ())
                    heappush(self._calendar, record)
                # Flight recorder: an attribute chain + bool when off (the
                # queue records the drop branch itself).  Armed, the DATA
                # lifecycle only (ACKs show as transport cwnd events) and no
                # occupancy detail: a dict per enqueue costs real time here;
                # the drop funnel snapshots occupancy instead.
                rec = _telemetry._active.flightrec
                if rec.enabled and packet.kind is _DATA:
                    rec.simnet("enqueue", now, self.name, packet.flow_id, packet.packet_id)
            return
        # Idle: start serializing, committing the ledger.  ``_dequeue_next``
        # repeats these lines, so a queued hop is one frame as well.
        self._busy_until = done = now + size * self._seconds_per_byte
        self._tx_bytes = size
        self._bytes_committed += size
        self._packets_committed += 1
        self._busy_seconds += done - now
        rec = _telemetry._active.flightrec
        if rec.enabled and packet.kind is _DATA:
            # Stamped with the time serialization ends; dumps sort on write.
            rec.simnet("transmit", done, self.name, packet.flow_id, packet.packet_id)
        record = (done + self.delay_s, next(self._seq), self._deliver, (packet,))
        heappush(self._calendar, record)

    def _dequeue_next(self) -> None:
        """The wire cleared with packets waiting: serialize the head."""
        now = self.sim._now
        packet = self.queue.dequeue()
        if packet is None:  # flushed since this event was armed
            self._dequeue_armed = False
            return
        size = packet.size_bytes
        self._busy_until = done = now + size * self._seconds_per_byte
        self._tx_bytes = size
        self._bytes_committed += size
        self._packets_committed += 1
        self._busy_seconds += done - now
        rec = _telemetry._active.flightrec
        if rec.enabled and packet.kind is _DATA:
            rec.simnet("dequeue", now, self.name, packet.flow_id, packet.packet_id)
            rec.simnet("transmit", done, self.name, packet.flow_id, packet.packet_id)
        calendar, seq = self._calendar, self._seq
        heappush(calendar, (done + self.delay_s, next(seq), self._deliver, (packet,)))
        if self.queue._queue:
            heappush(calendar, (done, next(seq), self._dequeue_next, ()))
        else:
            self._dequeue_armed = False

    def _deliver(self, packet: Packet) -> None:
        if self.dst_node is None:
            raise RuntimeError(f"link {self.name} has no destination node attached")
        self.packets_delivered += 1
        # No flight-recorder emit here: delivery is implied by the
        # transmit record plus the link's fixed delay.
        self.dst_node.receive(packet, self)

    def utilization(self) -> float:
        """Fraction of ``[created_at, now]`` the transmitter was busy.

        A serialization in progress counts up to ``now``.  The link keeps
        one accumulator, so this is the lifetime figure only; the reader
        for a window is :class:`~repro.simnet.monitor.LinkMonitor`.
        """
        now = self.sim._now
        elapsed = now - self.created_at
        if elapsed <= 0:
            return 0.0
        busy = self._busy_seconds
        if self._busy_until > now:
            busy -= self._busy_until - now
        return min(1.0, busy / elapsed)

    @property
    def is_busy(self) -> bool:
        """Whether a packet is currently being serialized."""
        return self._busy_until > self.sim._now

    @property
    def bytes_transmitted(self) -> int:
        """Bytes whose serialization has completed."""
        return self._bytes_committed - (self._tx_bytes if self.is_busy else 0)

    @property
    def packets_transmitted(self) -> int:
        """Packets whose serialization has completed."""
        return self._packets_committed - self.is_busy


def bdp_bytes(bandwidth_bps: float, rtt_s: float) -> int:
    """Bandwidth-delay product in bytes, the paper's buffer-sizing unit."""
    return int(bandwidth_bps * rtt_s / 8.0)
