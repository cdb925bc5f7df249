"""Bridge from simulation transport statistics to the prediction store.

In a deployment, the provider's servers feed every completed connection
into the shared observation store; this adapter does the same for
simulated connections so the prediction pipeline can be exercised end to
end against traffic the simulator actually carried.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..transport.base import ConnectionStats, TcpSender
from .history import LocationKey, ObservationStore, PerfObservation


def observation_from_stats(
    stats: ConnectionStats,
    location: LocationKey,
) -> Optional[PerfObservation]:
    """Convert a connection's final stats into a performance observation.

    Returns None for connections that never carried data (nothing to
    learn from).
    """
    if stats.bytes_goodput <= 0 or stats.duration <= 0:
        return None
    rtt_ms = stats.mean_rtt * 1e3 if stats.rtt_samples else 0.0
    return PerfObservation(
        location=location,
        timestamp=stats.end_time,
        throughput_mbps=stats.throughput_bps / 1e6,
        rtt_ms=rtt_ms,
        loss_rate=stats.loss_indicator,
    )


class PredictionFeeder:
    """Feeds an observation store from senders' completion callbacks.

    Usage with any sender factory::

        feeder = PredictionFeeder(store, location=("isp-a", "nyc"))
        sender = CubicSender(..., on_complete=feeder.wrap())
    """

    def __init__(self, store: ObservationStore, location: LocationKey) -> None:
        self.store = store
        self.location = location

    def record(self, stats: ConnectionStats) -> None:
        """Feed one connection's stats into the store."""
        observation = observation_from_stats(stats, self.location)
        if observation is not None:
            self.store.record(observation)

    def wrap(self) -> Callable[[TcpSender], None]:
        """A completion callback that records the sender's stats."""

        def callback(sender: TcpSender) -> None:
            self.record(sender.stats)

        return callback
