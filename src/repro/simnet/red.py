"""RED (Random Early Detection) queue with optional ECN marking.

An extension beyond the paper's FIFO-only evaluation: the paper argues
FIFO's lack of incentive compatibility forces coordination; RED/ECN is
the classic in-network alternative.  The ablation bench compares Phi
coordination against RED to show they attack the same standing-queue
problem from opposite ends.

Implements the Floyd/Jacobson 1993 algorithm: EWMA of queue length,
linear drop/mark probability between ``min_thresh`` and ``max_thresh``,
forced drop above ``max_thresh``, with the count-based spacing of
drops.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .packet import Packet
from .queues import DropTailQueue


class RedQueue(DropTailQueue):
    """RED queue; marks (ECN) or drops early as the average queue grows."""

    def __init__(
        self,
        capacity_bytes: Optional[int],
        clock: Callable[[], float],
        rng: np.random.Generator,
        *,
        min_thresh_bytes: float,
        max_thresh_bytes: float,
        max_probability: float = 0.1,
        weight: float = 0.002,
        ecn: bool = False,
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        super().__init__(capacity_bytes, clock, on_drop)
        if not 0 < min_thresh_bytes < max_thresh_bytes:
            raise ValueError(
                f"need 0 < min_thresh < max_thresh, got "
                f"{min_thresh_bytes} / {max_thresh_bytes}"
            )
        if not 0 < max_probability <= 1:
            raise ValueError(f"max_probability must be in (0, 1]: {max_probability}")
        if not 0 < weight <= 1:
            raise ValueError(f"weight must be in (0, 1]: {weight}")
        self.rng = rng
        self.min_thresh = min_thresh_bytes
        self.max_thresh = max_thresh_bytes
        self.max_probability = max_probability
        self.weight = weight
        self.ecn = ecn
        self.avg_queue_bytes = 0.0
        self.early_drops = 0
        self.ecn_marks = 0
        self._count_since_drop = -1

    def _update_average(self) -> None:
        self.avg_queue_bytes = (
            (1 - self.weight) * self.avg_queue_bytes
            + self.weight * self.bytes_queued
        )

    def _early_probability(self) -> float:
        if self.avg_queue_bytes < self.min_thresh:
            return 0.0
        if self.avg_queue_bytes >= self.max_thresh:
            return 1.0
        fraction = (self.avg_queue_bytes - self.min_thresh) / (
            self.max_thresh - self.min_thresh
        )
        return fraction * self.max_probability

    def enqueue(self, packet: Packet, now: Optional[float] = None) -> bool:
        self._update_average()
        probability = self._early_probability()
        if probability >= 1.0:
            self._count_since_drop = 0
            self.early_drops += 1
            self._drop_with_stats(packet, now)
            return False
        if probability > 0.0:
            self._count_since_drop += 1
            # Spread drops out: effective p grows with packets since the
            # last drop, per the RED paper.
            denominator = max(1e-9, 1.0 - self._count_since_drop * probability)
            effective = min(1.0, probability / denominator)
            if self.rng.random() < effective:
                self._count_since_drop = 0
                if self.ecn:
                    self.ecn_marks += 1
                    packet.priority |= 0  # packets keep flowing when marked
                    # ECN marking is modelled as a drop-free congestion
                    # signal: the packet is enqueued, the mark counted.
                    return super().enqueue(packet, now)
                self.early_drops += 1
                self._drop_with_stats(packet, now)
                return False
        else:
            self._count_since_drop = -1
        return super().enqueue(packet, now)

    def _drop_with_stats(self, packet: Packet, now: Optional[float]) -> None:
        # Route through the base class's drop accounting.
        self._drop(packet, self._integrate_occupancy(now))
