"""The congestion context: Phi's shared view of the network weather.

Section 2.2.2: "the congestion context can be characterized in terms of
(i) the utilization of the bottleneck link (u), (ii) the queue occupancy
(q), and (iii) the number of competing senders (n)."
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class CongestionLevel(Enum):
    """Coarse weather report derived from the raw (u, q, n) context.

    The levels key the parameter-policy table: "when any of these metrics
    is high, that would mean a high level of congestion and would call for
    more conservative behavior."
    """

    LOW = "low"
    MODERATE = "moderate"
    HIGH = "high"
    SEVERE = "severe"

    @property
    def rank(self) -> int:
        """Ordering: LOW < MODERATE < HIGH < SEVERE."""
        return _LEVEL_RANK[self]


_LEVEL_RANK = {
    CongestionLevel.LOW: 0,
    CongestionLevel.MODERATE: 1,
    CongestionLevel.HIGH: 2,
    CongestionLevel.SEVERE: 3,
}

#: Utilization thresholds between LOW/MODERATE/HIGH/SEVERE.
UTILIZATION_THRESHOLDS = (0.35, 0.65, 0.90)

#: Queueing-delay thresholds (seconds) that can escalate the level.
QUEUE_DELAY_THRESHOLDS = (0.010, 0.050, 0.200)

#: Per-connection fair-share thresholds (Mbit/s) below which the sender
#: count ``n`` alone implies MODERATE/HIGH/SEVERE congestion.  Unlike the
#: report-driven ``u`` and ``q`` estimates, ``n`` is known to the context
#: server in real time (every lookup registers a connection), so this
#: bucket reacts instantly to sender bursts.
FAIR_SHARE_THRESHOLDS_MBPS = (8.0, 2.0, 0.5)
_FAIR_SHARE_ASCENDING = FAIR_SHARE_THRESHOLDS_MBPS[::-1]


@dataclass(frozen=True)
class CongestionContext:
    """One snapshot of the shared network weather.

    Attributes
    ----------
    utilization:
        Bottleneck link utilization ``u`` in [0, 1].
    queue_delay_s:
        Queueing-delay proxy ``q``: RTT inflation over the minimum RTT.
    competing_senders:
        Number of concurrently active connections ``n``.
    timestamp:
        Simulation time the context was computed at (staleness tracking).
    """

    utilization: float
    queue_delay_s: float
    competing_senders: float
    timestamp: float = 0.0
    fair_share_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        # Finiteness first: NaN compares False against any bound, so the
        # range checks below would silently wave NaN through (and level()
        # would then bucket it to SEVERE).  Reject non-finite inputs for
        # every field instead.
        for name in ("utilization", "queue_delay_s", "competing_senders",
                     "timestamp", "fair_share_mbps"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value!r}")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1]: {self.utilization}")
        if self.queue_delay_s < 0:
            raise ValueError(f"queue_delay_s must be >= 0: {self.queue_delay_s}")
        if self.competing_senders < 0:
            raise ValueError(
                f"competing_senders must be >= 0: {self.competing_senders}"
            )
        if self.fair_share_mbps is not None and self.fair_share_mbps < 0:
            raise ValueError(
                f"fair_share_mbps must be >= 0: {self.fair_share_mbps}"
            )

    def level(self) -> CongestionLevel:
        """Discretize (u, q, n) into a :class:`CongestionLevel`.

        The level is the *worst* across the per-metric buckets — "when any
        of these metrics is high, that would mean a high level [of]
        congestion".  The ``n`` bucket uses the per-connection fair share
        when the context carries one.
        """
        rank = max(
            bisect_right(UTILIZATION_THRESHOLDS, self.utilization),
            bisect_right(QUEUE_DELAY_THRESHOLDS, self.queue_delay_s),
        )
        if self.fair_share_mbps is not None:
            # A fair share ranks by the thresholds it does not exceed.
            exceeded = bisect_left(_FAIR_SHARE_ASCENDING, self.fair_share_mbps)
            rank = max(rank, len(_FAIR_SHARE_ASCENDING) - exceeded)
        return _LEVELS_ASCENDING[rank]

    def is_stale(self, now: float, max_age_s: float) -> bool:
        """Whether this snapshot is older than ``max_age_s``."""
        return (now - self.timestamp) > max_age_s

    @classmethod
    def idle(cls, timestamp: float = 0.0) -> "CongestionContext":
        """The context of a quiet network."""
        return cls(
            utilization=0.0,
            queue_delay_s=0.0,
            competing_senders=0.0,
            timestamp=timestamp,
        )


_LEVELS_ASCENDING = (
    CongestionLevel.LOW,
    CongestionLevel.MODERATE,
    CongestionLevel.HIGH,
    CongestionLevel.SEVERE,
)


def _bucket(value: float, thresholds) -> CongestionLevel:
    """Bucket where *larger* values mean more congestion: a value at a
    threshold belongs to the level above it."""
    return _LEVELS_ASCENDING[bisect_right(thresholds, value)]
