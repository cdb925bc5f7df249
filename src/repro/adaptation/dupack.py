"""Informed duplicate-ACK threshold selection (Section 3.2).

"The threshold of 3 duplicate ACKs typically used to trigger TCP fast
retransmission could be adjusted if the experience of other connections
suggests that reordering is prevalent."

Connections contribute observed reordering depths (how far a packet
arrived ahead of an earlier one) per path; a new connection asks for a
threshold that keeps the spurious-fast-retransmit probability below a
target.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Sequence, Tuple

import numpy as np

from ..transport.base import DEFAULT_DUPACK_THRESHOLD

PathKey = Tuple[str, str]
"""(source site, destination site/AS)."""

#: Never recommend below the RFC-standard 3 dupACKs.
MIN_THRESHOLD = 3

#: Cap so a pathological path cannot disable fast retransmit entirely.
MAX_THRESHOLD = 12


@dataclass(frozen=True)
class DupAckRecommendation:
    """Advice for a new connection on a path."""

    threshold: int
    samples: int
    spurious_probability: float  # estimated at the recommended threshold


#: Reordering depths kept per path (oldest dropped first).
MAX_SAMPLES_PER_PATH = 100_000


class ReorderingObservatory:
    """Shared per-path reordering statistics."""

    def __init__(self) -> None:
        self._depths: Dict[PathKey, Deque[int]] = defaultdict(
            lambda: deque(maxlen=MAX_SAMPLES_PER_PATH)
        )

    def record_depths(self, path: PathKey, depths: Sequence[int]) -> None:
        """Contribute observed reordering depths (0 = in order)."""
        for depth in depths:
            if depth < 0:
                raise ValueError(f"depth must be >= 0: {depth}")
            self._depths[path].append(int(depth))

    def spurious_probability(self, path: PathKey, threshold: int) -> float:
        """P[a packet's reordering depth >= threshold] on ``path``.

        A depth >= threshold means reordering alone would trigger a
        (spurious) fast retransmit at that dupACK threshold.
        """
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        samples = self._depths.get(path)
        if not samples:
            return 0.0
        array = np.asarray(samples)
        return float(np.mean(array >= threshold))

    def recommend(
        self,
        path: PathKey,
        *,
        target_spurious: float = 0.001,
    ) -> DupAckRecommendation:
        """Smallest threshold whose spurious-retransmit rate meets target.

        Without shared data the standard threshold of 3 is returned.
        """
        if not 0 < target_spurious < 1:
            raise ValueError(
                f"target_spurious must be in (0, 1): {target_spurious}"
            )
        samples = self._depths.get(path)
        if not samples:
            return DupAckRecommendation(
                threshold=DEFAULT_DUPACK_THRESHOLD,
                samples=0,
                spurious_probability=0.0,
            )
        for threshold in range(MIN_THRESHOLD, MAX_THRESHOLD + 1):
            probability = self.spurious_probability(path, threshold)
            if probability <= target_spurious:
                return DupAckRecommendation(
                    threshold=threshold,
                    samples=len(samples),
                    spurious_probability=probability,
                )
        return DupAckRecommendation(
            threshold=MAX_THRESHOLD,
            samples=len(samples),
            spurious_probability=self.spurious_probability(path, MAX_THRESHOLD),
        )
