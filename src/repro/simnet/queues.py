"""Queueing disciplines.

The paper's experiments all use FIFO drop-tail queues ("the prevalence of
FIFO queueing makes the network not incentive compatible"), so
:class:`DropTailQueue` is the workhorse.  A priority variant is provided
for the Section 3.3 prioritization experiments.

All queues account occupancy both in packets and in bytes and keep a
time-weighted occupancy integral so monitors can report average queue
depth without sampling artifacts.  Every packet that enters a queue
leaves through exactly one of three doors — dequeue, drop, or flush —
so the conservation law

    ``enqueued == dequeued + flushed + still-queued``

holds at all times (see :meth:`DropTailQueue.assert_conservation`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import count
from typing import Callable, Deque, List, Optional, Tuple

from .. import telemetry as _telemetry
from .packet import Packet


class QueueStats:
    """Counters shared by all queue disciplines."""

    __slots__ = (
        "enqueued_packets",
        "enqueued_bytes",
        "dequeued_packets",
        "dequeued_bytes",
        "dropped_packets",
        "dropped_bytes",
        "flushed_packets",
        "flushed_bytes",
        "occupancy_byte_seconds",
        "occupancy_packet_seconds",
        "last_change_time",
        "peak_packets",
        "peak_bytes",
    )

    def __init__(self, created_at: float = 0.0) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.flushed_packets = 0
        self.flushed_bytes = 0
        self.occupancy_byte_seconds = 0.0
        self.occupancy_packet_seconds = 0.0
        # A queue created mid-simulation must not integrate phantom
        # empty-queue occupancy back to t=0, so the integral starts at the
        # owning queue's creation time.
        self.last_change_time = created_at
        self.peak_packets = 0
        self.peak_bytes = 0

    def drop_rate(self) -> float:
        """Fraction of arriving packets that were dropped."""
        arrived = self.enqueued_packets + self.dropped_packets
        if arrived == 0:
            return 0.0
        return self.dropped_packets / arrived

    def mean_occupancy_bytes(self, elapsed: float) -> float:
        """Time-averaged queue occupancy in bytes over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.occupancy_byte_seconds / elapsed

    def mean_occupancy_packets(self, elapsed: float) -> float:
        """Time-averaged queue occupancy in packets over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.occupancy_packet_seconds / elapsed


class DropTailQueue:
    """A FIFO queue with a byte-capacity limit and drop-tail behaviour.

    Parameters
    ----------
    capacity_bytes:
        Maximum queued bytes.  An arriving packet that would exceed this is
        dropped (classic drop tail).  ``None`` means unbounded.
    clock:
        Zero-argument callable returning the current simulation time; used
        to stamp packets and integrate occupancy.  The occupancy integral
        starts at the clock's value at construction, so queues created
        mid-simulation (a flow joining at t=30) do not accrue phantom
        empty-queue time from t=0.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int],
        clock: Callable[[], float],
    ) -> None:
        # Negated so a NaN fails too; None is the one unbounded capacity.
        if capacity_bytes is not None and not 0 < capacity_bytes < math.inf:
            raise ValueError(
                f"capacity_bytes must be positive and finite, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._clock = clock
        # Storage: anything with a length, and the two operations on it
        # bound once (for a deque, its C methods).  A subclass with another
        # container rebinds all three and overrides ``_drain``.
        self._queue: Deque[Packet] = deque()
        self._append: Callable[[Packet], None] = self._queue.append
        self._popleft: Callable[[], Packet] = self._queue.popleft
        self._bytes = 0
        self.created_at = clock()
        self.stats = QueueStats(created_at=self.created_at)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        """Current occupancy in bytes."""
        return self._bytes

    @property
    def packets_queued(self) -> int:
        """Current occupancy in packets."""
        return len(self._queue)

    def _integrate_occupancy(self, now: Optional[float] = None) -> float:
        """Bring both occupancy integrals up to ``now`` (the clock's reading
        when not given) and return it.  :meth:`enqueue` and :meth:`dequeue`
        carry the same lines inline; the order of the float operations is
        part of every pinned trajectory."""
        if now is None:
            now = self._clock()
        stats = self.stats
        elapsed = now - stats.last_change_time
        if elapsed > 0:
            stats.occupancy_byte_seconds += self._bytes * elapsed
            stats.occupancy_packet_seconds += len(self._queue) * elapsed
        stats.last_change_time = now
        return now

    def enqueue(self, packet: Packet, now: Optional[float] = None) -> bool:
        """Append ``packet``; returns False (and drops it) when full.

        ``now`` is the caller's reading of the queue's clock, for a caller
        that has one in hand (a link does); the queue reads it otherwise.
        """
        if now is None:
            now = self._clock()
        stats = self.stats
        elapsed = now - stats.last_change_time
        if elapsed > 0:
            stats.occupancy_byte_seconds += self._bytes * elapsed
            stats.occupancy_packet_seconds += len(self._queue) * elapsed
        stats.last_change_time = now
        size = packet.size_bytes
        queued_bytes = self._bytes + size
        if self.capacity_bytes is not None and queued_bytes > self.capacity_bytes:
            self._drop(packet, now)
            return False
        packet.enqueued_at = now
        self._append(packet)
        self._bytes = queued_bytes
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        if len(self._queue) > stats.peak_packets:
            stats.peak_packets = len(self._queue)
        if queued_bytes > stats.peak_bytes:
            stats.peak_bytes = queued_bytes
        return True

    def _drop(self, packet: Packet, now: float) -> None:
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += packet.size_bytes
        # Flight recorder: the single drop funnel for every queue
        # discipline; the occupancy snapshot is what lets the post-mortem
        # attribute a stall to queue buildup rather than to a fault.
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.simnet(
                "drop", now, "queue",
                packet.flow_id, packet.packet_id,
                detail={
                    "queued_bytes": self._bytes,
                    "capacity_bytes": self.capacity_bytes,
                },
            )

    def dequeue(self, now: Optional[float] = None) -> Optional[Packet]:
        """Pop the head packet, or return None when empty (``now`` as for
        :meth:`enqueue`)."""
        queued = len(self._queue)
        if not queued:
            # Nothing to integrate: an empty queue adds exactly 0.0 to
            # both occupancy integrals however long it stays empty.
            return None
        if now is None:
            now = self._clock()
        stats = self.stats
        elapsed = now - stats.last_change_time
        if elapsed > 0:
            stats.occupancy_byte_seconds += self._bytes * elapsed
            stats.occupancy_packet_seconds += queued * elapsed
        stats.last_change_time = now
        packet = self._popleft()
        self._bytes -= packet.size_bytes
        stats.dequeued_packets += 1
        stats.dequeued_bytes += packet.size_bytes
        return packet

    def flush(self) -> List[Packet]:
        """Remove and return all queued packets (used at teardown).

        Drained packets are credited to the ``flushed_*`` counters so the
        conservation law survives teardown.
        """
        self._integrate_occupancy()
        drained = self._drain()
        for packet in drained:
            self.stats.flushed_packets += 1
            self.stats.flushed_bytes += packet.size_bytes
        self._bytes = 0
        return drained

    def assert_conservation(self) -> None:
        """Raise AssertionError unless every packet is accounted for.

        Checks ``enqueued == dequeued + flushed + queued`` in both packets
        and bytes.  Cheap enough to call from tests and teardown paths.
        """
        stats = self.stats
        accounted_packets = (
            stats.dequeued_packets + stats.flushed_packets + len(self._queue)
        )
        assert stats.enqueued_packets == accounted_packets, (
            f"packet conservation violated: enqueued={stats.enqueued_packets} "
            f"!= dequeued={stats.dequeued_packets} + "
            f"flushed={stats.flushed_packets} + queued={len(self._queue)}"
        )
        accounted_bytes = stats.dequeued_bytes + stats.flushed_bytes + self._bytes
        assert stats.enqueued_bytes == accounted_bytes, (
            f"byte conservation violated: enqueued={stats.enqueued_bytes} "
            f"!= dequeued={stats.dequeued_bytes} + "
            f"flushed={stats.flushed_bytes} + queued={self._bytes}"
        )

    def _drain(self) -> List[Packet]:
        drained = list(self._queue)
        self._queue.clear()
        return drained


class PriorityQueue(DropTailQueue):
    """A strict-priority variant used for the Section 3.3 experiments.

    Packets with a *lower* ``priority`` value are dequeued first; within a
    priority class order is FIFO.  Capacity accounting and drop-tail
    behaviour are inherited unchanged.

    Storage is a binary heap keyed on ``(priority, arrival_seq)``, so
    both enqueue and dequeue are O(log n) — replacing the previous O(n)
    rotate-and-scan over the whole deque — while the arrival sequence
    number keeps same-priority packets in strict FIFO order.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int],
        clock: Callable[[], float],
    ) -> None:
        super().__init__(capacity_bytes, clock)
        self._queue: List[Tuple[int, int, Packet]] = []
        self._append = self._push
        self._popleft = self._pop
        self._arrival = count()

    def _push(self, packet: Packet) -> None:
        heapq.heappush(self._queue, (packet.priority, next(self._arrival), packet))

    def _pop(self) -> Packet:
        return heapq.heappop(self._queue)[2]

    def _drain(self) -> List[Packet]:
        # Drain in dequeue (priority, then FIFO) order.
        drained = [entry[2] for entry in sorted(self._queue)]
        self._queue.clear()
        return drained
