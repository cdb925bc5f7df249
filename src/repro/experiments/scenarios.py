"""Named experiment scenarios and convenience runners.

Encodes the paper's workload settings (Sections 2.2.1-2.2.4) as presets
and provides one-call runners for each arm of the evaluation: fixed-
parameter Cubic (the Table-2 sweep's unit of work), Phi-coordinated
Cubic in ideal and practical modes, and partial deployments.  Each is
:func:`~repro.experiments.dumbbell.run_preset` with its own senders;
every Phi arm's senders are a :class:`~repro.phi.plane.Plane`, through
:func:`run_plane`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from ..metrics.summary import RunMetrics, summarize_connections
from ..phi.deployment import deployment_factories, split_stats
from ..phi.plane import Plane, PlaneRunResult, PlaneSpec, SharingMode
from ..phi.policy import PolicyTable
from ..simnet.engine import WatchdogConfig
from ..simnet.topology import DumbbellConfig
from ..transport.cubic import CubicParams, CubicSender
from ..workload.onoff import OnOffConfig
from .dumbbell import ExperimentEnv, ScenarioPreset, ScenarioResult, run_preset


#: Figure 2a: on/off Cubic senders at low bottleneck utilization
#: (mean connection length 500 KB, mean off 2 s).
FIG2A_LOW_UTILIZATION = ScenarioPreset(
    name="fig2a-low-utilization",
    config=DumbbellConfig(n_senders=8),
    workload=OnOffConfig(mean_on_bytes=500_000, mean_off_s=2.0),
    duration_s=60.0,
    description="Figure 2a: low link utilization, 500 KB / 2 s on-off",
)

#: Figure 2b: same workload shape, more senders -> high utilization.
FIG2B_HIGH_UTILIZATION = ScenarioPreset(
    name="fig2b-high-utilization",
    config=DumbbellConfig(n_senders=24),
    workload=OnOffConfig(mean_on_bytes=500_000, mean_off_s=2.0),
    duration_s=60.0,
    description="Figure 2b: high link utilization, 500 KB / 2 s on-off",
)

#: Figure 2c: long-running connections saturating the link (~99%).
#: The paper uses 100; the preset keeps the dynamics with a tractable
#: sender count (override n via the config for the full-scale run).
FIG2C_LONG_RUNNING = ScenarioPreset(
    name="fig2c-long-running",
    config=DumbbellConfig(n_senders=40),
    workload=None,
    duration_s=60.0,
    description="Figure 2c: persistent bulk flows, ~99% utilization",
)

#: Figure 4: incremental deployment at moderate utilization (the paper
#: notes the unmodified senders' benefit diminishes as utilization goes
#: higher, so the preset keeps the link out of saturation).
FIG4_INCREMENTAL = ScenarioPreset(
    name="fig4-incremental",
    config=DumbbellConfig(n_senders=10),
    workload=OnOffConfig(mean_on_bytes=500_000, mean_off_s=2.0),
    duration_s=60.0,
    description="Figure 4: half modified / half unmodified senders",
)

#: Table 3: "single bottleneck dumbbell topology with link speed 15 Mbps
#: and round-trip time 150 ms with 8 senders, each alternating between
#: flows of exponentially-distributed byte length (mean 100 KB) and
#: exponentially-distributed off time (mean 0.5 s)".
TABLE3_REMY = ScenarioPreset(
    name="table3-remy",
    config=DumbbellConfig(
        n_senders=8, bottleneck_bandwidth_bps=15e6, rtt_s=0.150
    ),
    workload=OnOffConfig(mean_on_bytes=100_000, mean_off_s=0.5),
    duration_s=60.0,
    description="Table 3: Remy comparison workload",
)

ALL_PRESETS = (
    FIG2A_LOW_UTILIZATION,
    FIG2B_HIGH_UTILIZATION,
    FIG2C_LONG_RUNNING,
    FIG4_INCREMENTAL,
    TABLE3_REMY,
)


# ----------------------------------------------------------------------
# Fixed-parameter Cubic (the sweep arm of Figures 2 and 3)
# ----------------------------------------------------------------------
def run_cubic_fixed(
    params: CubicParams,
    preset: ScenarioPreset,
    seed: int = 0,
    duration_s: Optional[float] = None,
    watchdog: Optional[WatchdogConfig] = None,
    checked: Optional[bool] = None,
    check_report=None,
    slot_order: Optional[Sequence[int]] = None,
    monitor_period_s: float = 0.1,
    fault_hook=None,
) -> ScenarioResult:
    """All senders run Cubic with one fixed parameter setting.

    This is the paper's "simplified setting, where ... all the TCP Cubic
    senders use the same parameter settings that is fixed for the
    duration of the run".  The keywords after ``duration_s`` are
    :func:`~repro.experiments.dumbbell.run_preset`'s.
    """
    return run_preset(
        lambda env: partial(CubicSender, params=params),
        preset,
        seed=seed,
        duration_s=duration_s,
        watchdog=watchdog,
        checked=checked,
        check_report=check_report,
        slot_order=slot_order,
        monitor_period_s=monitor_period_s,
        fault_hook=fault_hook,
    )


# ----------------------------------------------------------------------
# Phi: every coordinated run is senders on one plane
# ----------------------------------------------------------------------
def run_plane(
    spec: PlaneSpec,
    preset: ScenarioPreset,
    *,
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> PlaneRunResult:
    """Every sender of ``preset`` on the Phi plane ``spec`` describes.

    The plane is built on the run's fresh environment before any flow
    starts, so all senders share it; the result carries its accounting.
    """
    duration = preset.duration_s if duration_s is None else duration_s
    planes: List[Plane] = []

    def senders(env: ExperimentEnv):
        planes.append(Plane(spec, env, duration))
        return planes[-1].factory

    result = run_preset(senders, preset, seed=seed, duration_s=duration)
    return planes[0].outcome(result)


def run_phi_cubic(
    policy: PolicyTable,
    preset: ScenarioPreset,
    mode: SharingMode = SharingMode.PRACTICAL,
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> ScenarioResult:
    """All senders use Phi: context lookup at start, report at end.

    A healthy :func:`run_plane`: ``mode`` picks the context server
    (PRACTICAL) or the ground-truth oracle (IDEAL); the no-sharing
    baseline is :func:`run_cubic_fixed`.
    """
    spec = PlaneSpec(policy=policy, mode=mode)
    return run_plane(spec, preset, seed=seed, duration_s=duration_s).result


# ----------------------------------------------------------------------
# Incremental deployment (Figure 4)
# ----------------------------------------------------------------------
@dataclass
class IncrementalResult:
    """Figure-4 outcome: overall plus per-population metrics."""

    overall: ScenarioResult
    modified: RunMetrics
    unmodified: RunMetrics
    modified_fraction: float


def run_incremental_deployment(
    optimal_params: CubicParams,
    preset: ScenarioPreset = FIG4_INCREMENTAL,
    modified_fraction: float = 0.5,
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> IncrementalResult:
    """A fraction of senders adopt the coordinated-optimal parameters.

    Modified senders use ``optimal_params`` ("the parameter setting that
    would have been optimal had all senders been cooperating"); the rest
    keep the Table-1 defaults.
    """
    if preset.workload is None:
        raise ValueError("incremental deployment is defined on on/off workloads")
    assignments = deployment_factories(
        preset.config.n_senders,
        modified_fraction,
        modified_factory=partial(CubicSender, params=optimal_params),
        unmodified_factory=CubicSender,
    )
    overall = run_preset(
        lambda env: [a.factory for a in assignments],
        preset,
        seed=seed,
        duration_s=duration_s,
    )
    modified_stats, unmodified_stats = split_stats(
        assignments, overall.per_sender_stats
    )
    kwargs = dict(
        bottleneck_loss_rate=overall.bottleneck_drop_rate,
        mean_utilization=overall.mean_utilization,
    )
    return IncrementalResult(
        overall=overall,
        modified=summarize_connections(modified_stats, **kwargs),
        unmodified=summarize_connections(unmodified_stats, **kwargs),
        modified_fraction=modified_fraction,
    )
