"""Run-level metric aggregation.

Turns a pile of per-connection :class:`ConnectionStats` (plus optional
bottleneck ground truth) into the three quantities the paper plots —
throughput, queueing delay, packet loss rate — and the derived power
objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

from ..transport.base import ConnectionStats
from .power import log_power, power, power_with_loss


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate outcome of one simulation run.

    ``throughput_mbps`` follows the paper's definition ("throughput = bits
    transferred / ontime"): total goodput bits over total connection
    on-time.  ``queueing_delay_ms`` is RTT inflation over the minimum RTT,
    the paper's ``q`` proxy.  ``loss_rate`` is the fraction of data
    packets dropped at the bottleneck when ground truth is available,
    otherwise the retransmission fraction.
    """

    throughput_mbps: float
    queueing_delay_ms: float
    loss_rate: float
    connections: int
    total_bytes: int
    mean_rtt_ms: float = 0.0
    mean_utilization: float = 0.0

    @property
    def power(self) -> float:
        """P = r / d."""
        return power(self.throughput_mbps, self.queueing_delay_ms)

    @property
    def power_l(self) -> float:
        """P_l = r (1 - l) / d — the Cubic-tuning objective."""
        return power_with_loss(
            self.throughput_mbps, self.queueing_delay_ms, self.loss_rate
        )

    @property
    def log_power(self) -> float:
        """log(P) — the Remy objective."""
        return log_power(self.throughput_mbps, self.queueing_delay_ms)


#: Floor on a run's queueing delay, so power stays finite on an idle queue.
MIN_DELAY_FLOOR_MS = 0.05


def summarize_connections(
    stats: Sequence[ConnectionStats],
    *,
    bottleneck_loss_rate: Optional[float] = None,
    mean_utilization: float = 0.0,
) -> RunMetrics:
    """Aggregate per-connection stats into :class:`RunMetrics`.

    Connections that never delivered data (zero goodput and zero RTT
    samples) are excluded — they correspond to flows cut off at the end of
    the experiment before the first ACK.
    """
    useful = [s for s in stats if s.bytes_goodput > 0 or s.rtt_samples]
    if not useful:
        return RunMetrics(
            throughput_mbps=0.0,
            queueing_delay_ms=0.0,
            loss_rate=0.0,
            connections=0,
            total_bytes=0,
            mean_utilization=mean_utilization,
        )

    total_bytes = sum(s.bytes_goodput for s in useful)
    total_on_time = sum(s.duration for s in useful)
    throughput_mbps = (
        total_bytes * 8.0 / total_on_time / 1e6 if total_on_time > 0 else 0.0
    )

    # Weight each connection's queueing delay by its RTT sample count so
    # long connections (more samples) dominate proportionally.
    delay_weight = 0.0
    delay_sum = 0.0
    rtt_sum = 0.0
    for s in useful:
        n = len(s.rtt_samples)
        if n == 0:
            continue
        delay_sum += s.mean_queueing_delay * n
        rtt_sum += s.mean_rtt * n
        delay_weight += n
    queueing_delay_ms = (delay_sum / delay_weight * 1e3) if delay_weight else 0.0
    mean_rtt_ms = (rtt_sum / delay_weight * 1e3) if delay_weight else 0.0
    queueing_delay_ms = max(queueing_delay_ms, MIN_DELAY_FLOOR_MS)

    if bottleneck_loss_rate is not None:
        loss_rate = bottleneck_loss_rate
    else:
        packets = sum(s.packets_sent for s in useful)
        retransmits = sum(s.retransmits for s in useful)
        loss_rate = retransmits / packets if packets else 0.0

    return RunMetrics(
        throughput_mbps=throughput_mbps,
        queueing_delay_ms=queueing_delay_ms,
        loss_rate=min(1.0, loss_rate),
        connections=len(useful),
        total_bytes=total_bytes,
        mean_rtt_ms=mean_rtt_ms,
        mean_utilization=mean_utilization,
    )


@dataclass(frozen=True)
class CrossRunSummary:
    """Mean/median aggregation of the same configuration across runs."""

    mean_throughput_mbps: float
    mean_queueing_delay_ms: float
    mean_loss_rate: float
    mean_power_l: float
    median_throughput_mbps: float
    median_queueing_delay_ms: float
    median_log_power: float
    runs: int


def summarize_runs(runs: Sequence[RunMetrics]) -> CrossRunSummary:
    """Aggregate several :class:`RunMetrics` of the same configuration."""
    if not runs:
        raise ValueError("summarize_runs needs at least one run")
    throughputs = [r.throughput_mbps for r in runs]
    delays = [r.queueing_delay_ms for r in runs]
    losses = [r.loss_rate for r in runs]
    powers = [r.power_l for r in runs]
    log_powers = [r.log_power for r in runs]
    return CrossRunSummary(
        mean_throughput_mbps=sum(throughputs) / len(runs),
        mean_queueing_delay_ms=sum(delays) / len(runs),
        mean_loss_rate=sum(losses) / len(runs),
        mean_power_l=sum(powers) / len(runs),
        median_throughput_mbps=median(throughputs),
        median_queueing_delay_ms=median(delays),
        median_log_power=median(log_powers),
        runs=len(runs),
    )
