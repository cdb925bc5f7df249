"""Byzantine-context experiments: Phi when the control plane *lies*.

X4 degrades the control plane's *availability*; this experiment
degrades its *truthfulness* — the X6 sweep.  Two orthogonal axes:

- **severity**: the probability each context lookup is corrupted
  (:mod:`repro.phi.corruption` modes — bit flips, unit errors, frozen
  and replayed snapshots, adversarial deflation);
- **byzantine fraction**: the probability each end-of-connection report
  is poisoned by a lying sender.

Each (severity, fraction) point runs the one Phi plane
(:mod:`repro.phi.plane`) with a corruption layer on its channel.  In the
**guarded** configuration the stack fights back on three layers — a
server-side robust aggregation (:class:`~repro.phi.server.ContextServer`
``robust=True``), a
client-side :class:`~repro.phi.guard.ContextGuard`, and outcome-driven
:class:`~repro.phi.trust.TrustTracker` distrust — and the claim under
test is the *safety envelope*: mean power and mean throughput never
drop materially below the uncoordinated Cubic baseline, because every
defeated lie lands the sender on stock defaults.  The **unguarded**
configuration strips all three layers and demonstrates why they exist.

A calibration note on where the harm shows up.  Stock Cubic's default
``ssthresh`` (65536) floods the bottleneck queue, so in *power* terms
(throughput over queueing delay) stock is the worst configuration in
the policy table's neighbourhood — no context lie can steer tuned
Cubic below the stock power baseline.  The damage surfaces on the
**throughput** axis instead: self-consistent *inflation* lies ("the
network is jammed, back way off") sail past every static guard check,
put the whole population on SEVERE parameters, and collapse throughput
on a lightly loaded network to ~0.6x baseline.  Only the outcome-driven
trust layer catches that lie — predicted SEVERE against observed LOW
— which is exactly the layering argument this experiment exists to
make.

Corruption randomness comes from per-point seeded streams
(``context-corruption`` / ``byzantine-reports``), so a point's poison
trace is a pure function of its seed and serial and parallel sweeps
are bit-identical.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import telemetry
from ..phi.corruption import DEFAULT_MODES
from ..phi.plane import PlaneRunResult, PlaneSpec
from ..phi.policy import PolicyTable
from .dumbbell import ScenarioPreset
from .faultsweep import Baseline, FaultScenario, Floor, merged_counts, stock_cubic
from .scenarios import run_plane


def run_poisoned_phi_cubic(
    policy: PolicyTable,
    preset: ScenarioPreset,
    *,
    severity: float,
    byzantine_fraction: float = 0.0,
    seed: int = 0,
    modes: Sequence[str] = DEFAULT_MODES,
    guarded: bool = True,
    duration_s: Optional[float] = None,
) -> PlaneRunResult:
    """Phi-coordinated Cubic behind a lying control plane.

    ``severity`` is the per-lookup corruption probability over ``modes``,
    ``byzantine_fraction`` the per-report poisoning probability.  With
    ``guarded=True`` (the default) the full defence stack is armed:
    robust server aggregation, a capacity-aware :class:`ContextGuard`,
    and a :class:`TrustTracker` gating the DISTRUSTED decision.  With
    ``guarded=False`` the stack trusts everything it hears — the
    ablation showing why the defences exist.
    """
    spec = PlaneSpec(
        policy=policy,
        severity=severity,
        modes=tuple(modes),
        byzantine_fraction=byzantine_fraction,
        guarded=guarded,
    )
    return run_plane(spec, preset, seed=seed, duration_s=duration_s)


# ----------------------------------------------------------------------
# The X6 sweep: severity x byzantine fraction, as a declaration over the
# fault-sweep harness
# ----------------------------------------------------------------------
POISON = FaultScenario(
    name="poison",
    grid={"severity": (0.0, 0.5, 1.0), "byzantine_fraction": (0.0,)},
    run=run_poisoned_phi_cubic,
    accounting={
        "decision_counts": merged_counts,
        "guard_rejections": merged_counts,
        "reports_rejected": sum,
        "contexts_corrupted": sum,
        "reports_poisoned": sum,
        "trust_score": telemetry.mean,
        "distrust_entries": sum,
    },
    cell_format="severity={severity:g} byzantine={byzantine_fraction:g}",
    # Uncoordinated Cubic, one run per seed (same preset, workload and
    # duration as every poisoned point).
    baselines=(
        Baseline(
            "baseline",
            stock_cubic,
            tables={
                "baseline_power_by_seed": "power_l",
                "baseline_throughput_by_seed": "throughput_mbps",
            },
        ),
    ),
    floors=(Floor("baseline", "floor"),),
)

