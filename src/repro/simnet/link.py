"""Point-to-point links.

A :class:`Link` is unidirectional: it serializes packets at a fixed
bandwidth, holds excess arrivals in an attached queue, and delivers each
packet to the destination node after a propagation delay.  Bidirectional
connectivity is modelled as two independent links (as in ns-2's duplex
links).

A FIFO link is a function of its arrivals.  A packet's start is fixed the
moment it is offered, ``max(now, _busy_until)``, and so is the drop
decision: drop-tail and RED look only at the bytes still waiting at
``now``.  ``send`` therefore computes the start, the end of serialization
and the delivery time at once and posts only the delivery: a hop costs
one event whether or not the packet waits.  ``_starts`` holds the waiting
packets' start stamps beside the queue, and a packet leaves the queue
lazily, when a later ``send`` or a ledger read (:meth:`Link.settle`) finds
its start ``<= now``.  Every ledger read settles, ``queue`` included.

A link that alone feeds the egress links its router routes onto
(declared with :meth:`Link.cut_through`) goes one hop further: it
computes the egress departure too and posts the one event at the host.
Its deliveries, the router's counts and the egress ledger settle on read
from the computed arrival stamps.

Nothing a link posts is ever cancelled, so it pushes handle-free
``(time, seq, callback, args)`` calendar records (see
:mod:`repro.simnet.engine`), with no time check: a link's times are now
plus a non-negative delay.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from .. import telemetry as _telemetry
from .engine import SimulationError, Simulator
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
        self._queue = queue if queue is not None else DropTailQueue(None, lambda: sim.now)
        self.dst_node: Optional["Node"] = None
        # The wire clears of every packet committed to it at
        # ``_busy_until``; ``_starts`` holds the start stamps of the packets
        # still waiting in the queue, in its order.  The transmit-side
        # ledger counts the packets whose serialization has started, with
        # ``_tx_bytes`` the size of the latest, and is settled on read (the
        # ``*_transmitted`` properties).
        self._busy_until = 0.0
        self._starts: Deque[float] = deque()
        self._tx_bytes = 0
        self._bytes_committed = 0
        self._packets_committed = 0
        # Conservation ledger (see repro.simcheck.conservation): every
        # packet offered to the link is eventually transmitted, queued,
        # dropped by the queue, or in serialization; every transmitted
        # packet is delivered or still propagating.
        self._packets_offered = 0
        self._bytes_offered = 0
        self._packets_delivered = 0
        # Cut-through (see cut_through).  On the feeding link: the egress
        # for each cut destination, and ``(arrival, egress start, packet,
        # egress)`` for each packet committed to one and not yet settled
        # at the router.  On an egress: the link that feeds it, and when
        # its wire clears of every packet committed to it, arrived or not.
        self._cut: Optional[Dict[str, Link]] = None
        self._arrivals: Deque[Tuple[float, float, Packet, Link]] = deque()
        self._feeder: Optional[Link] = None
        self._cut_until = 0.0
        # Hot-path bindings: serialization happens once per packet per
        # link, so precompute the per-byte wire time, and bind the
        # calendar and its sequence counter the records are pushed with.
        self._seconds_per_byte = 8.0 / bandwidth_bps
        self._calendar = sim._heap
        self._seq = sim._seq

    def attach(self, dst_node: "Node") -> None:
        """Set the node that receives packets at the far end."""
        self.dst_node = dst_node

    def cut_through(self) -> None:
        """Declare that this link alone feeds every link its router routes
        a destination onto.

        Nothing else sends on such an egress, so its departures are a
        function of this link's commits: a packet for ``dst`` reaches the
        router at ``arrival = done + delay`` and leaves at ``max(arrival,
        egress busy) + size / bandwidth``.  This link computes that when
        it commits the packet and posts one event, the delivery at the
        host.  An egress queue must never drop, now or after a swap.
        """
        egresses = dict(self.dst_node._table)
        for egress in egresses.values():
            egress._refuse_if_it_can_drop(egress._queue)
            egress._feeder = self
            egress._cut_until = egress._busy_until
        self._cut = egresses
        self.dst_node._feeds.append(self)

    def _refuse_if_it_can_drop(self, queue: DropTailQueue) -> None:
        """A cut-through egress takes only the unbounded drop-tail queue."""
        if type(queue) is not DropTailQueue or queue.capacity_bytes is not None:
            raise ValueError(f"cut-through egress {self.name} has a queue that can drop")

    def send(self, packet: Packet) -> None:
        """Offer ``packet`` to the link.

        It starts when the wire clears of everything committed before it,
        ``max(now, _busy_until)``: at once on an idle link, otherwise after
        a wait in the queue (which may drop it).  A packet offered at the
        instant the wire clears meets an idle transmitter, and one offered
        at a waiting head's start finds the head already gone.
        """
        if self._feeder is not None:
            raise SimulationError(
                f"{packet.dst} reached cut-through link {self.name} by a path "
                f"other than {self._feeder.name}"
            )
        size = packet.size_bytes
        self._packets_offered += 1
        self._bytes_offered += size
        # The clock field, not the ``now`` property; read once per hop (a
        # queue attached to a link is on the link's clock and is handed it).
        now = self.sim._now
        starts = self._starts
        if starts and starts[0] <= now:
            self._settle_queue(now)
        # Flight recorder: an attribute chain + bool when off (the queue
        # records the drop branch itself).  Armed, the DATA lifecycle only
        # (ACKs show as transport cwnd events) and no occupancy detail: a
        # dict per enqueue costs real time here; the drop funnel snapshots
        # occupancy instead.
        rec = _telemetry._active.flightrec
        start = self._busy_until
        if start > now:
            if not self._queue.enqueue(packet, now):
                return
            starts.append(start)
            self._busy_until = done = start + size * self._seconds_per_byte
            if rec.enabled and packet.kind is _DATA:
                rec.simnet("enqueue", now, self.name, packet.flow_id, packet.packet_id)
        else:
            # Idle: serialization starts now, committing the ledger.
            self._busy_until = done = now + size * self._seconds_per_byte
            self._tx_bytes = size
            self._bytes_committed += size
            self._packets_committed += 1
            if rec.enabled and packet.kind is _DATA:
                # Stamped with the time serialization ends; dumps sort on write.
                rec.simnet("transmit", done, self.name, packet.flow_id, packet.packet_id)
        cut = self._cut
        if cut is not None:
            egress = cut.get(packet.dst)
            if egress is not None:
                # The egress hop, computed now: the same two float additions
                # its own ``send`` would make at ``arrival``.
                arrival = done + self.delay_s
                egress_start = egress._cut_until
                if egress_start < arrival:
                    egress_start = arrival
                egress._cut_until = egress_done = (
                    egress_start + size * egress._seconds_per_byte
                )
                arrivals = self._arrivals
                arrivals.append((arrival, egress_start, packet, egress))
                record = (
                    egress_done + egress.delay_s, next(self._seq), egress._deliver, (packet,)
                )
                heappush(self._calendar, record)
                if arrivals[0][0] <= now:
                    self._settle_arrivals(now)
                return
        record = (done + self.delay_s, next(self._seq), self._deliver, (packet,))
        heappush(self._calendar, record)

    def _settle_queue(self, now: float) -> None:
        """Dequeue every waiting packet whose serialization has started."""
        starts, dequeue = self._starts, self._queue.dequeue
        rec = _telemetry._active.flightrec
        while starts and starts[0] <= now:
            start = starts.popleft()
            packet = dequeue()
            size = packet.size_bytes
            self._tx_bytes = size
            self._bytes_committed += size
            self._packets_committed += 1
            if rec.enabled and packet.kind is _DATA:
                flow_id, packet_id = packet.flow_id, packet.packet_id
                rec.simnet("dequeue", start, self.name, flow_id, packet_id)
                done = start + size * self._seconds_per_byte
                rec.simnet("transmit", done, self.name, flow_id, packet_id)

    def _settle_arrivals(self, now: float) -> None:
        """Settle every cut-through packet that has reached the router."""
        arrivals = self._arrivals
        settled = 0
        while arrivals and arrivals[0][0] <= now:
            arrival, start, packet, egress = arrivals.popleft()
            egress._arrive(packet, arrival, start)
            settled += 1
        self._packets_delivered += settled
        router = self.dst_node
        router._received += settled
        router._forwarded += settled

    def _arrive(self, packet: Packet, now: float, start: float) -> None:
        """Enter a cut-through arrival at ``now`` in this egress's ledger.

        ``send``'s lines at the arrival's time, less the delivery, which
        was posted with ``start`` when the feeding link committed it.
        """
        size = packet.size_bytes
        self._packets_offered += 1
        self._bytes_offered += size
        starts = self._starts
        if starts and starts[0] <= now:
            self._settle_queue(now)
        rec = _telemetry._active.flightrec
        self._busy_until = done = start + size * self._seconds_per_byte
        if start > now:
            if not self._queue.enqueue(packet, now):
                raise SimulationError(f"cut-through link {self.name} dropped a packet")
            starts.append(start)
            if rec.enabled and packet.kind is _DATA:
                rec.simnet("enqueue", now, self.name, packet.flow_id, packet.packet_id)
        else:
            self._tx_bytes = size
            self._bytes_committed += size
            self._packets_committed += 1
            if rec.enabled and packet.kind is _DATA:
                rec.simnet("transmit", done, self.name, packet.flow_id, packet.packet_id)

    def _deliver(self, packet: Packet) -> None:
        if self.dst_node is None:
            raise RuntimeError(f"link {self.name} has no destination node attached")
        self._packets_delivered += 1
        # No flight-recorder emit here: delivery is implied by the
        # transmit record plus the link's fixed delay.
        self.dst_node.receive(packet, self)

    def settle(self) -> None:
        """Bring the ledger to the clock.

        Enters the cut-through arrivals that have reached the router
        (those feeding this link first) and dequeues the waiting packets
        whose start has come.  Every ledger read calls it.
        """
        if self._feeder is not None:
            self._feeder.settle()
        now = self.sim._now
        arrivals = self._arrivals
        if arrivals and arrivals[0][0] <= now:
            self._settle_arrivals(now)
        starts = self._starts
        if starts and starts[0] <= now:
            self._settle_queue(now)

    @property
    def queue(self) -> DropTailQueue:
        """The attached queue, settled to the clock."""
        self.settle()
        return self._queue

    @queue.setter
    def queue(self, queue: DropTailQueue) -> None:
        # The waiting packets' deliveries are posted, and the link's drops
        # are the queue's: a swap after the first offer breaks the ledger.
        self.settle()
        if self._packets_offered:
            raise ValueError(f"link {self.name} has carried traffic; swap queues before it")
        if self._feeder is not None:
            self._refuse_if_it_can_drop(queue)
        self._queue = queue

    @property
    def packets_offered(self) -> int:
        """Packets offered to the link."""
        self.settle()
        return self._packets_offered

    @property
    def bytes_offered(self) -> int:
        """Bytes offered to the link."""
        self.settle()
        return self._bytes_offered

    @property
    def packets_delivered(self) -> int:
        """Packets handed to the far-end node."""
        self.settle()
        return self._packets_delivered

    @property
    def is_busy(self) -> bool:
        """Whether a packet is currently being serialized."""
        self.settle()
        return self._busy_until > self.sim._now

    @property
    def bytes_transmitted(self) -> int:
        """Bytes whose serialization has completed."""
        busy = self.is_busy
        return self._bytes_committed - (self._tx_bytes if busy else 0)

    @property
    def packets_transmitted(self) -> int:
        """Packets whose serialization has completed."""
        busy = self.is_busy
        return self._packets_committed - busy


def bdp_bytes(bandwidth_bps: float, rtt_s: float) -> int:
    """Bandwidth-delay product in bytes, the paper's buffer-sizing unit."""
    return int(bandwidth_bps * rtt_s / 8.0)
