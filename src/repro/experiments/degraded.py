"""Degraded-control-plane experiments: Phi under context-server chaos.

The robustness analogue of the Figure 4 staleness ablation: instead of
asking "how much does coordination help?", these runners ask "how much
of the help survives when the coordination channel itself is cut
off?".  Senders run on the one Phi plane (:mod:`repro.phi.plane`) — a
:class:`~repro.phi.channel.ControlChannel` (outage windows, one attempt
per call) behind the one-replica
:class:`~repro.phi.failover.FailoverChannel` (a failed call benches the
server for a short jittered window), wrapped by a
:class:`~repro.phi.fallback.ResilientContextClient` (staleness TTL,
default-parameter fallback, report recovery queue) — with scheduled
outage windows, so a sweep over server unavailability traces the
graceful-degradation curve between Phi-practical (0% down) and the
uncoordinated baseline (100% down).
"""

from __future__ import annotations

from typing import Optional

from ..phi.plane import PlaneRunResult, PlaneSpec
from ..phi.policy import PolicyTable
from .dumbbell import ScenarioPreset
from .faultsweep import LEASE_TTL_S, Baseline, FaultScenario, merged_counts, stock_cubic
from .scenarios import run_plane


def run_degraded_phi_cubic(
    policy: PolicyTable,
    preset: ScenarioPreset,
    *,
    unavailability: float,
    seed: int = 0,
    duration_s: Optional[float] = None,
    staleness_ttl_s: float = 10.0,
    outage_period_s: float = 5.0,
) -> PlaneRunResult:
    """Phi-coordinated Cubic behind a failing control plane.

    The single-server plane with ``unavailability`` of the run's
    duration spent in outage windows of ``outage_period_s`` periods.
    With ``unavailability=0`` this is exactly
    ``run_phi_cubic`` (practical mode); with ``unavailability=1`` every
    connection falls back to stock Cubic, i.e. the uncoordinated
    baseline.
    """
    spec = PlaneSpec(
        policy=policy,
        lease_ttl_s=LEASE_TTL_S,
        staleness_ttl_s=staleness_ttl_s,
        unavailability=unavailability,
        outage_period_s=outage_period_s,
    )
    return run_plane(spec, preset, seed=seed, duration_s=duration_s)


#: X4 as a declaration over the fault-sweep harness: one axis, anchored
#: on stock Cubic.  No floor: partial outages keep power at or above
#: stock but cost throughput (``benchmarks/test_ext_degraded_control.py``).
DEGRADED = FaultScenario(
    name="degraded",
    grid={"unavailability": (0.0, 0.25, 0.5, 0.75, 1.0)},
    run=run_degraded_phi_cubic,
    accounting={"decision_counts": merged_counts},
    cell_format="unavailability={unavailability:g}",
    baselines=(Baseline("stock", stock_cubic),),
)
