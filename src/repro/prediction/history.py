"""Observation store for performance prediction.

Section 3.5: "the large volume of aggregate network performance data
available even within a single cloud provider would ... enable effective
performance prediction".  The store indexes past transfer/call
observations by network location (client AS + metro) so predictions can
be made from the experience of *other* clients in the same location.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from ..simnet.bounds import check

LocationKey = Tuple[str, str]
"""(client AS, metro)."""


@dataclass(frozen=True)
class PerfObservation:
    """One completed transfer or call, as recorded by a server."""

    location: LocationKey
    timestamp: float
    throughput_mbps: float
    rtt_ms: float
    loss_rate: float

    def __post_init__(self) -> None:
        check("throughput_mbps", self.throughput_mbps, ge=0)
        check("rtt_ms", self.rtt_ms, ge=0)
        check("loss_rate", self.loss_rate, ge=0, le=1)


#: Observations kept per location (oldest dropped first).
MAX_PER_LOCATION = 10_000


class ObservationStore:
    """Bounded per-location history of performance observations."""

    def __init__(self) -> None:
        self._by_location: Dict[LocationKey, Deque[PerfObservation]] = defaultdict(
            lambda: deque(maxlen=MAX_PER_LOCATION)
        )

    def record(self, observation: PerfObservation) -> None:
        """Store one observation."""
        self._by_location[observation.location].append(observation)

    def recent(self, location: LocationKey) -> List[PerfObservation]:
        """Observations for ``location``, newest last."""
        return list(self._by_location.get(location, ()))
