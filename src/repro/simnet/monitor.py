"""Instrumentation: link and queue monitors.

The Phi context server needs the "ground truth" congestion context —
bottleneck utilization ``u``, queue occupancy ``q``, and number of
competing senders ``n`` — for the ideal-sharing experiments, and the
benches need time series of utilization for reporting.  Monitors sample
on a fixed period and keep windowed histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque
from collections import deque

from ..telemetry import DEFAULT_BUCKETS, UTILIZATION_BUCKETS
from ..telemetry import mean as _mean
from ..telemetry import session as _telemetry_session
from .bounds import check
from .engine import Simulator
from .link import Link

#: Samples a :class:`LinkMonitor` keeps: 1000 s at the default period.
HISTORY = 10_000


@dataclass(frozen=True)
class LinkSample:
    """One periodic observation of a link."""

    time: float
    utilization: float
    queue_bytes: int
    queue_packets: int
    drop_rate: float


class LinkMonitor:
    """Periodically samples a link's utilization and queue occupancy.

    Utilization is measured per sampling interval (bytes clocked onto the
    wire during the interval over the interval's capacity), which matches
    how the paper characterizes "the utilization of the bottleneck link".
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        period_s: float = 0.1,
    ) -> None:
        check("period_s", period_s, gt=0)
        self.sim = sim
        self.link = link
        self.period_s = period_s
        self.samples: Deque[LinkSample] = deque(maxlen=HISTORY)
        stats = link.queue.stats
        self._last_bytes = link.bytes_transmitted
        self._last_drops = stats.dropped_packets
        self._last_arrivals = stats.enqueued_packets + stats.dropped_packets
        self._started = False
        self._epoch = 0.0
        self._ticks = 0

    def start(self) -> None:
        """Begin periodic sampling (idempotent)."""
        if self._started:
            return
        self._started = True
        # Sample times are computed as epoch + k*period (one rounding per
        # tick) rather than by repeatedly adding the period, so a
        # week-long simulation does not accumulate float drift in its
        # sampling grid.
        self._epoch = self.sim.now
        self._ticks = 1
        self.sim.schedule_at(self._epoch + self.period_s, self._sample)

    def _sample(self) -> None:
        queue = self.link.queue
        stats = queue.stats
        bytes_now = self.link.bytes_transmitted
        interval_bits = (bytes_now - self._last_bytes) * 8.0
        capacity_bits = self.link.bandwidth_bps * self.period_s
        utilization = min(1.0, interval_bits / capacity_bits)

        arrivals_now = stats.enqueued_packets + stats.dropped_packets
        drops_now = stats.dropped_packets
        interval_arrivals = arrivals_now - self._last_arrivals
        interval_drops = drops_now - self._last_drops
        drop_rate = interval_drops / interval_arrivals if interval_arrivals else 0.0

        self.samples.append(
            LinkSample(
                time=self.sim.now,
                utilization=utilization,
                queue_bytes=queue.bytes_queued,
                queue_packets=queue.packets_queued,
                drop_rate=drop_rate,
            )
        )
        self._last_bytes = bytes_now
        self._last_drops = drops_now
        self._last_arrivals = arrivals_now

        tele = _telemetry_session()
        if tele.enabled:
            registry = tele.registry
            link_name = self.link.name
            registry.histogram(
                "link.utilization", UTILIZATION_BUCKETS, link=link_name
            ).observe(utilization)
            registry.histogram(
                "link.queue_depth_pkts", DEFAULT_BUCKETS, link=link_name
            ).observe(queue.packets_queued)
            if interval_drops:
                registry.counter("link.drops", link=link_name).inc(interval_drops)

        self._ticks += 1
        self.sim.schedule_at(self._epoch + self._ticks * self.period_s, self._sample)

    def current_utilization(self, window: int = 10) -> float:
        """Mean utilization over the last ``window`` samples."""
        recent = list(self.samples)[-window:]
        return _mean([sample.utilization for sample in recent])

    def current_queue_bytes(self, window: int = 10) -> float:
        """Mean queue occupancy (bytes) over the last ``window`` samples."""
        recent = list(self.samples)[-window:]
        return _mean([sample.queue_bytes for sample in recent])

    def mean_utilization(self, since: float = 0.0) -> float:
        """Mean utilization across all samples taken at or after ``since``."""
        return _mean([s.utilization for s in self.samples if s.time >= since])


class ActiveFlowTracker:
    """Counts concurrently active flows — the paper's ``n`` dimension.

    Workloads call :meth:`flow_started` / :meth:`flow_finished`;
    the Phi context server reads :attr:`active_flows`.
    """

    def __init__(self) -> None:
        self.active_flows = 0

    def flow_started(self) -> None:
        """Record that a flow became active."""
        self.active_flows += 1

    def flow_finished(self) -> None:
        """Record that an active flow completed or was aborted."""
        if self.active_flows <= 0:
            raise RuntimeError("flow_finished without matching flow_started")
        self.active_flows -= 1
