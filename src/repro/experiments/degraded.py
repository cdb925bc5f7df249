"""Degraded-control-plane experiments: Phi under context-server chaos.

The robustness analogue of the Figure 4 staleness ablation: instead of
asking "how much does coordination help?", these runners ask "how much
of the help survives when the coordination channel itself is slow,
lossy, or partitioned?".  Senders go through the full resilient stack —
:class:`~repro.phi.channel.ControlChannel` (latency/loss/outages,
timeouts, retries, circuit breaker) wrapped by a
:class:`~repro.phi.fallback.ResilientContextClient` (staleness TTL,
default-parameter fallback, report recovery queue) — so a sweep over
server unavailability traces the graceful-degradation curve between
Phi-practical (0% down) and the uncoordinated baseline (100% down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.summary import RunMetrics
from ..phi.channel import (
    ChannelConfig,
    ChannelStats,
    CircuitBreaker,
    ControlChannel,
)
from ..phi.fallback import ResilientContextClient, resilient_phi_cubic_factory
from ..phi.policy import PolicyTable
from ..phi.server import ContextServer
from ..simnet.faults import Outage
from .dumbbell import ExperimentEnv, ScenarioPreset, ScenarioResult, run_preset
from .faultsweep import (
    FaultScenario,
    FaultSweepRow,
    merged_counts,
    run_fault_sweep,
)


def experiment_channel(
    env: ExperimentEnv,
    backend,
    config: ChannelConfig,
    *,
    stream: str = "control-channel",
    corruption=None,
) -> ControlChannel:
    """The control channel every fault experiment puts before a backend.

    Loss and jitter draw on the run's seeded ``stream``, made only when
    ``config`` needs one.  A breaker whose cool-down dwarfs the outage
    cadence would stay open through entire recovery windows, so the
    reset is kept short relative to the injected outage period.
    """
    return ControlChannel(
        env.sim,
        backend,
        config=config,
        rng=env.rngs.stream(stream) if config.needs_rng else None,
        breaker=CircuitBreaker(
            lambda: env.sim.now, failure_threshold=5, reset_timeout_s=1.0
        ),
        corruption=corruption,
    )


def schedule_unavailability(
    channel: ControlChannel,
    *,
    fraction: float,
    duration_s: float,
    period_s: float = 5.0,
) -> None:
    """Spread outage windows covering ``fraction`` of ``[0, duration_s]``.

    The run is cut into ``period_s`` periods; the server is down for the
    first ``fraction`` of each, so unavailability is evenly distributed
    rather than one lump (senders see repeated partitions, exercising
    cache staleness and recovery every period).  ``fraction == 1`` is one
    outage covering the whole run.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    if period_s <= 0:
        raise ValueError(f"period_s must be positive: {period_s}")
    if fraction == 0.0:
        return
    if fraction >= 1.0:
        Outage(channel.sim, 0.0, duration_s, targets=[channel])
        return
    start = 0.0
    while start < duration_s:
        window = min(period_s, duration_s - start)
        down = fraction * window
        if down > 0:
            Outage(channel.sim, start, down, targets=[channel])
        start += period_s


@dataclass
class DegradedRunResult:
    """One degraded run plus the control plane's own accounting."""

    result: ScenarioResult
    unavailability: float
    decision_counts: Dict[str, int]
    channel_stats: ChannelStats
    pending_reports: int
    leases_expired: int

    @property
    def metrics(self) -> RunMetrics:
        """The run's aggregate transport metrics."""
        return self.result.metrics


def run_degraded_phi_cubic(
    policy: PolicyTable,
    preset: ScenarioPreset,
    *,
    unavailability: float,
    seed: int = 0,
    duration_s: Optional[float] = None,
    staleness_ttl_s: float = 10.0,
    channel_config: Optional[ChannelConfig] = None,
    outage_period_s: float = 5.0,
    lease_ttl_s: Optional[float] = 60.0,
) -> DegradedRunResult:
    """Phi-coordinated Cubic behind a failing control plane.

    All senders share one :class:`ContextServer` reached through one
    :class:`ControlChannel` with ``unavailability`` of the run's duration
    spent in scheduled outages, and degrade via a
    :class:`ResilientContextClient`.  With ``unavailability=0`` and a
    loss-free channel this is exactly ``run_phi_cubic`` (practical
    mode); with ``unavailability=1`` every connection falls back to
    stock Cubic, i.e. the uncoordinated baseline.
    """
    duration = duration_s if duration_s is not None else preset.duration_s
    planes = []

    def senders(env: ExperimentEnv):
        server = ContextServer(
            env.sim, env.bottleneck_capacity_bps, lease_ttl_s=lease_ttl_s
        )
        channel = experiment_channel(env, server, channel_config or ChannelConfig())
        schedule_unavailability(
            channel,
            fraction=unavailability,
            duration_s=duration,
            period_s=outage_period_s,
        )
        client = ResilientContextClient(
            channel, now=lambda: env.sim.now, staleness_ttl_s=staleness_ttl_s
        )
        planes.append((client, channel, server))
        return resilient_phi_cubic_factory(client, policy, now=lambda: env.sim.now)

    result = run_preset(senders, preset, seed=seed, duration_s=duration)
    ((client, channel, server),) = planes
    return DegradedRunResult(
        result=result,
        unavailability=unavailability,
        decision_counts=client.decision_counts(),
        channel_stats=channel.stats,
        pending_reports=client.pending_reports,
        leases_expired=server.leases_expired,
    )


#: X4 as a declaration over the fault-sweep harness: one axis, no
#: baselines of its own (the bench anchors the curve on Phi-practical and
#: stock Cubic itself).
DEGRADED = FaultScenario(
    name="degraded",
    axes=("unavailability",),
    run=run_degraded_phi_cubic,
    accounting={"decision_counts": merged_counts},
    cell_format="unavailability={unavailability:g}",
)


def sweep_unavailability(
    policy: PolicyTable,
    preset: ScenarioPreset,
    fractions: Sequence[float],
    *,
    seeds: Sequence[int] = (0, 1),
    duration_s: Optional[float] = None,
    **kwargs,
) -> List[FaultSweepRow]:
    """The graceful-degradation curve: power vs. server unavailability.

    One row per fraction (``row.axes["unavailability"]``), aggregated
    across ``seeds``.  Extra keyword arguments pass through to
    :func:`run_degraded_phi_cubic`.  Runs serially under the caller's own
    telemetry session; a point that cannot be evaluated raises rather
    than leaving a hole in the curve.
    """
    outcome = run_fault_sweep(
        DEGRADED,
        policy,
        preset,
        {"unavailability": fractions},
        seeds=seeds,
        duration_s=duration_s,
        fixed=kwargs,
        parallel=False,
        collect_telemetry=False,
    )
    if outcome.quarantined:
        raise RuntimeError("; ".join(q.describe() for q in outcome.quarantined))
    return outcome.rows
