"""Queueing disciplines.

The paper's experiments all use FIFO drop-tail queues ("the prevalence of
FIFO queueing makes the network not incentive compatible"), so
:class:`DropTailQueue` is the workhorse; :class:`~repro.simnet.red.RedQueue`
is its one variant.

All queues account occupancy both in packets and in bytes (a time
series of it is :class:`~repro.simnet.monitor.LinkMonitor`'s to keep).
Every packet that enters a queue leaves it by dequeue, so the
conservation law

    ``enqueued == dequeued + still-queued``

holds at all times (:func:`repro.simcheck.conservation.audit_queue`
checks it, in packets and in bytes).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional

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
        "peak_packets",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.peak_packets = 0

    def drop_rate(self) -> float:
        """Fraction of arriving packets that were dropped."""
        arrived = self.enqueued_packets + self.dropped_packets
        if arrived == 0:
            return 0.0
        return self.dropped_packets / arrived


class DropTailQueue:
    """A FIFO queue with a byte-capacity limit and drop-tail behaviour.

    Parameters
    ----------
    capacity_bytes:
        Maximum queued bytes.  An arriving packet that would exceed this is
        dropped (classic drop tail).  ``None`` means unbounded.
    clock:
        Zero-argument callable returning the current simulation time; read
        to stamp a drop's flight-recorder record when :meth:`enqueue` is
        not handed ``now``.
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
        # The deque's two operations, bound once (its C methods).
        self._queue: Deque[Packet] = deque()
        self._append: Callable[[Packet], None] = self._queue.append
        self._popleft: Callable[[], Packet] = self._queue.popleft
        self._bytes = 0
        self.stats = QueueStats()

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

    def enqueue(self, packet: Packet, now: Optional[float] = None) -> bool:
        """Append ``packet``; returns False (and drops it) when full.

        ``now`` is the caller's reading of the queue's clock, for a caller
        that has one in hand (a link does); the queue reads it otherwise.
        Only a drop's flight-recorder record is stamped with it.
        """
        size = packet.size_bytes
        queued_bytes = self._bytes + size
        if self.capacity_bytes is not None and queued_bytes > self.capacity_bytes:
            self._drop(packet, now)
            return False
        self._append(packet)
        self._bytes = queued_bytes
        stats = self.stats
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        if len(self._queue) > stats.peak_packets:
            stats.peak_packets = len(self._queue)
        return True

    def _drop(self, packet: Packet, now: Optional[float]) -> None:
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += packet.size_bytes
        # Flight recorder: the single drop funnel for every queue
        # discipline; the occupancy snapshot is what lets the post-mortem
        # attribute a stall to queue buildup rather than to a fault.
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.simnet(
                "drop", self._clock() if now is None else now, "queue",
                packet.flow_id, packet.packet_id,
                detail={
                    "queued_bytes": self._bytes,
                    "capacity_bytes": self.capacity_bytes,
                },
            )

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or return None when empty."""
        if not self._queue:
            return None
        packet = self._popleft()
        self._bytes -= packet.size_bytes
        stats = self.stats
        stats.dequeued_packets += 1
        stats.dequeued_bytes += packet.size_bytes
        return packet
