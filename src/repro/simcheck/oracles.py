"""Differential and metamorphic oracles for the simulation stack.

Each oracle replays a canonical scenario two ways that *must* agree —
bit-for-bit for the differential pairs, within declared tolerances for
the metamorphic transforms — and reports what it compared:

- **checked vs unchecked**: the :class:`~repro.simcheck.CheckedSimulator`
  must not perturb a single bit of the simulation outcome;
- **flow-start permutation**: constructing the per-slot sources in a
  different order (identical per-slot seeds) must not change results;
- **serial vs parallel**: the sweep runner's pool must be bit-identical
  to its single-process baseline;
- **grid permutation**: sweeping a permuted grid must produce the same
  per-key results;
- **time dilation** (fixed-BDP rescale): dividing bandwidth by ``k`` and
  multiplying every time constant by ``k`` keeps the bandwidth-delay
  product fixed, so throughput scales by ``1/k``, delays by ``k``, the
  power metric P_l by ``1/k^2``, and dimensionless outcomes (loss rate,
  utilization, connection count) stay put.  With a power-of-two ``k``
  every scaled float is exact, so the only divergence source is the
  *unscaled* RTO floor/initial constants (RFC 6298) — the declared
  tolerances below absorb it;
- **unit rescale**: re-expressing throughput/delay in different units
  multiplies every P_l by one constant, so P_l *ratios* between
  operating points are invariant;
- **replication identity**: the replicated control plane collapsed to a
  single replica must be bit-identical (events included) to the plain
  single-server stack, with and without the server's outages;
- **replica convergence**: a healed partition's divergence must fall
  below epsilon within a bounded number of anti-entropy rounds and stay
  there.

This module intentionally lives outside the ``repro.simcheck`` package
``__init__`` import graph: it imports the experiment and runner layers,
which themselves import ``repro.simcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.dumbbell import ScenarioResult
from ..experiments.scenarios import (
    FIG2A_LOW_UTILIZATION,
    TABLE3_REMY,
    ScenarioPreset,
    run_cubic_fixed,
    run_plane,
)
from ..metrics.power import power_with_loss
from ..phi.plane import PlaneSpec
from ..phi.policy import REFERENCE_POLICY
from ..phi.replication import ReplicatedContextService, ReplicationConfig
from ..phi.server import ConnectionReport
from ..runner import NullCache, SweepRunner
from ..runner.core import result_mismatches
from ..simnet.engine import Simulator
from ..transport.cubic import CubicParams
from .violations import ViolationReport

#: Declared tolerances for the time-dilation oracle.  The simulation
#: rescales exactly (power-of-two k) except where the RFC 6298 RTO
#: floor/initial constants enter; these bounds absorb that divergence.
TIME_DILATION_REL_TOL = 0.05
TIME_DILATION_LOSS_ABS_TOL = 0.005

#: Tolerance for the unit-rescale ratio invariance (pure float rounding).
UNIT_RESCALE_REL_TOL = 1e-9

#: Reduced sweep grid for the runner oracles: enough points to exercise
#: ordering and merge paths without dominating wall time.
_ORACLE_GRID = (
    CubicParams.default(),
    CubicParams(window_init=4.0, initial_ssthresh=32.0, beta=0.5),
    CubicParams(window_init=2.0, initial_ssthresh=8.0, beta=0.3),
)


@dataclass
class OracleOutcome:
    """One oracle's verdict: what it compared and every mismatch found."""

    name: str
    passed: bool
    failures: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "failures": list(self.failures),
            "details": dict(self.details),
        }


def _compare_scenarios(a: ScenarioResult, b: ScenarioResult) -> List[str]:
    """Bit-identity failures between two scenario results (empty = equal)."""
    from ..runner.records import flow_records

    failures: List[str] = []
    if a.metrics != b.metrics:
        failures.append(f"metrics differ: {a.metrics} vs {b.metrics}")
    if a.bottleneck_drop_rate != b.bottleneck_drop_rate:
        failures.append(
            f"drop rate differs: {a.bottleneck_drop_rate} vs {b.bottleneck_drop_rate}"
        )
    if a.mean_utilization != b.mean_utilization:
        failures.append(
            f"utilization differs: {a.mean_utilization} vs {b.mean_utilization}"
        )
    flows_a = flow_records(a.per_sender_stats)
    flows_b = flow_records(b.per_sender_stats)
    if len(flows_a) != len(flows_b):
        failures.append(f"flow count differs: {len(flows_a)} vs {len(flows_b)}")
    else:
        for fa, fb in zip(flows_a, flows_b):
            if fa != fb:
                failures.append(f"flow {fa.flow_id} differs: {fa} vs {fb}")
                break
    return failures


def oracle_checked_vs_unchecked(duration_s: float = 10.0, seed: int = 0) -> OracleOutcome:
    """The invariant layer must not change a single output bit."""
    preset = TABLE3_REMY
    plain = run_cubic_fixed(
        CubicParams.default(), preset, seed=seed, duration_s=duration_s, checked=False
    )
    report = ViolationReport()
    checked = run_cubic_fixed(
        CubicParams.default(),
        preset,
        seed=seed,
        duration_s=duration_s,
        checked=True,
        check_report=report,
    )
    failures = _compare_scenarios(plain, checked)
    for violation in report.violations:
        failures.append(f"invariant violation under checked run: {violation}")
    return OracleOutcome(
        name="checked-vs-unchecked",
        passed=not failures,
        failures=failures,
        details={
            "connections": plain.connections,
            "checks_performed": report.checks_performed,
        },
    )


def oracle_flow_permutation(duration_s: float = 10.0, seed: int = 0) -> OracleOutcome:
    """Permuting source construction order must not change results.

    Every slot's RNG stream is keyed by its index, so construction order
    only permutes event-queue insertion sequence numbers — which must be
    invisible as long as no two slots tie on an event timestamp.
    """
    preset = TABLE3_REMY
    # A fixed full derangement: reversal moves every slot when n > 1.
    slot_order = list(reversed(range(preset.config.n_senders)))
    baseline = run_cubic_fixed(
        CubicParams.default(), preset, seed=seed, duration_s=duration_s
    )
    permuted = run_cubic_fixed(
        CubicParams.default(),
        preset,
        seed=seed,
        duration_s=duration_s,
        slot_order=slot_order,
    )
    failures = _compare_scenarios(baseline, permuted)
    return OracleOutcome(
        name="flow-permutation",
        passed=not failures,
        failures=failures,
        details={"slot_order": list(slot_order), "connections": baseline.connections},
    )


def _sweep(duration_s: float, seed: int, grid: Sequence[CubicParams], workers: int):
    runner = SweepRunner(
        TABLE3_REMY, duration_s=duration_s, n_workers=workers, cache=NullCache()
    )
    return runner.run(grid, n_runs=2, base_seed=seed, parallel=workers > 1)


def oracle_serial_vs_parallel(duration_s: float = 5.0, seed: int = 0) -> OracleOutcome:
    """The worker pool must be bit-identical to the serial baseline."""
    workers = 2
    serial = _sweep(duration_s, seed, _ORACLE_GRID, 1)
    parallel = _sweep(duration_s, seed, _ORACLE_GRID, workers)
    failures = result_mismatches(serial.points, parallel.points)
    return OracleOutcome(
        name="serial-vs-parallel",
        passed=not failures,
        failures=failures,
        details={"points": len(serial.points), "workers": workers},
    )


def oracle_grid_permutation(duration_s: float = 5.0, seed: int = 0) -> OracleOutcome:
    """Sweeping a permuted grid must give the same per-key results."""
    forward = _sweep(duration_s, seed, _ORACLE_GRID, 1)
    backward = _sweep(duration_s, seed, tuple(reversed(_ORACLE_GRID)), 1)
    failures = result_mismatches(forward.points, backward.points)
    return OracleOutcome(
        name="grid-permutation",
        passed=not failures,
        failures=failures,
        details={"points": len(forward.points)},
    )


def dilated_preset(preset: ScenarioPreset, k: float) -> ScenarioPreset:
    """``preset`` rescaled by time factor ``k`` at fixed BDP.

    Bandwidths divide by ``k``; every time constant (RTT, off periods,
    start jitter, duration) multiplies by ``k``.  Byte quantities are
    untouched, so bandwidth x delay — and with it the buffer in bytes —
    is invariant.
    """
    if preset.workload is None:
        raise ValueError("time dilation oracle needs an on/off preset")
    config = replace(
        preset.config,
        bottleneck_bandwidth_bps=preset.config.bottleneck_bandwidth_bps / k,
        access_bandwidth_bps=preset.config.access_bandwidth_bps / k,
        rtt_s=preset.config.rtt_s * k,
    )
    workload = replace(
        preset.workload,
        mean_off_s=preset.workload.mean_off_s * k,
        start_jitter_s=preset.workload.start_jitter_s * k,
    )
    return replace(
        preset,
        name=f"{preset.name}-dilated-{k:g}x",
        config=config,
        workload=workload,
        duration_s=preset.duration_s * k,
    )


def _rel_err(observed: float, expected: float) -> float:
    if expected == 0.0:
        return abs(observed)
    return abs(observed - expected) / abs(expected)


def oracle_time_dilation(duration_s: float = 10.0, seed: int = 0) -> OracleOutcome:
    """Fixed-BDP rescale: r -> r/k, d -> d*k, P_l -> P_l/k^2, with k = 2."""
    preset, k = TABLE3_REMY, 2.0
    baseline = run_cubic_fixed(
        CubicParams.default(), preset, seed=seed, duration_s=duration_s
    )
    scaled_preset = dilated_preset(replace(preset, duration_s=duration_s), k)
    scaled = run_cubic_fixed(
        CubicParams.default(),
        scaled_preset,
        seed=seed,
        duration_s=scaled_preset.duration_s,
        monitor_period_s=0.1 * k,
    )
    failures: List[str] = []
    checks = {
        "throughput_mbps": (
            scaled.metrics.throughput_mbps,
            baseline.metrics.throughput_mbps / k,
        ),
        "queueing_delay_ms": (
            scaled.metrics.queueing_delay_ms,
            baseline.metrics.queueing_delay_ms * k,
        ),
        "mean_rtt_ms": (scaled.metrics.mean_rtt_ms, baseline.metrics.mean_rtt_ms * k),
        "mean_utilization": (
            scaled.metrics.mean_utilization,
            baseline.metrics.mean_utilization,
        ),
    }
    errors: Dict[str, float] = {}
    for label, (observed, expected) in checks.items():
        err = _rel_err(observed, expected)
        errors[label] = err
        if err > TIME_DILATION_REL_TOL:
            failures.append(
                f"{label}: observed {observed:.6g}, predicted {expected:.6g} "
                f"(rel err {err:.3g} > {TIME_DILATION_REL_TOL})"
            )
    loss_diff = abs(scaled.metrics.loss_rate - baseline.metrics.loss_rate)
    errors["loss_rate"] = loss_diff
    if loss_diff > TIME_DILATION_LOSS_ABS_TOL:
        failures.append(
            f"loss_rate: {scaled.metrics.loss_rate:.6g} vs "
            f"{baseline.metrics.loss_rate:.6g} (abs diff {loss_diff:.3g})"
        )
    base_power = power_with_loss(
        baseline.metrics.throughput_mbps,
        baseline.metrics.queueing_delay_ms,
        baseline.metrics.loss_rate,
    )
    scaled_power = power_with_loss(
        scaled.metrics.throughput_mbps,
        scaled.metrics.queueing_delay_ms,
        scaled.metrics.loss_rate,
    )
    power_err = _rel_err(scaled_power, base_power / (k * k))
    errors["power"] = power_err
    if power_err > TIME_DILATION_REL_TOL:
        failures.append(
            f"P_l: observed {scaled_power:.6g}, predicted "
            f"{base_power / (k * k):.6g} (rel err {power_err:.3g})"
        )
    return OracleOutcome(
        name="time-dilation",
        passed=not failures,
        failures=failures,
        details={"k": k, "relative_errors": errors},
    )


def oracle_unit_rescale() -> OracleOutcome:
    """Unit changes scale every P_l equally, so P_l ratios are invariant."""
    operating_points = [
        (1.2, 37.0, 0.0),
        (4.5, 58.5, 0.013),
        (12.0, 141.0, 0.08),
        (0.31, 9.25, 0.002),
    ]
    # (throughput scale, delay scale): e.g. Mbit/s -> kbit/s, ms -> s.
    unit_scales = [(1e3, 1.0), (1.0, 10.0), (8.0, 0.25), (1e3, 10.0)]
    base = [power_with_loss(r, d, l) for r, d, l in operating_points]
    failures: List[str] = []
    worst = 0.0
    for r_scale, d_scale in unit_scales:
        rescaled = [
            power_with_loss(r * r_scale, d * d_scale, l)
            for r, d, l in operating_points
        ]
        for i in range(len(operating_points)):
            for j in range(i + 1, len(operating_points)):
                expected = base[i] / base[j]
                observed = rescaled[i] / rescaled[j]
                err = _rel_err(observed, expected)
                worst = max(worst, err)
                if err > UNIT_RESCALE_REL_TOL:
                    failures.append(
                        f"P_l ratio {i}/{j} drifts under unit scale "
                        f"({r_scale}, {d_scale}): {observed!r} vs {expected!r}"
                    )
    return OracleOutcome(
        name="unit-rescale",
        passed=not failures,
        failures=failures,
        details={"worst_relative_error": worst},
    )


#: Divergence below this is "converged" for the replica-convergence
#: oracle: replicated estimators reconcile to float-rounding agreement.
CONVERGENCE_EPSILON = 1e-6

#: Anti-entropy rounds a healed component gets to reconverge before the
#: oracle calls it divergent.
CONVERGENCE_ROUNDS = 3


#: The faulted replication-identity pairs: X4 outages over this share of
#: every 2 s period, with a 2 s staleness TTL so the client leans on the
#: channel each period, on these seeds for this long.
IDENTITY_UNAVAILABILITY = (0.25, 0.5, 0.75)
IDENTITY_FAULT_SEEDS = (0, 1)
IDENTITY_FAULT_DURATION_S = 12.0


def identity_pair_failures(seed: int, duration_s: float, **dials: Any) -> List[str]:
    """Where the single-server plane and the N=1 replicated plane, with
    the same fault ``dials``, differ (empty = bit-identical, events and
    decisions included)."""
    preset = FIG2A_LOW_UTILIZATION
    single = run_plane(
        PlaneSpec(policy=REFERENCE_POLICY, **dials), preset,
        seed=seed, duration_s=duration_s,
    )
    replicated = run_plane(
        PlaneSpec(
            policy=REFERENCE_POLICY, replication=ReplicationConfig(n_replicas=1), **dials
        ),
        preset, seed=seed, duration_s=duration_s,
    )
    failures = _compare_scenarios(single.result, replicated.result)
    if single.result.events_processed != replicated.result.events_processed:
        failures.append(
            f"event count differs: {single.result.events_processed} vs "
            f"{replicated.result.events_processed}"
        )
    if single.decision_counts != replicated.decision_counts:
        failures.append(
            f"decision counts differ: {single.decision_counts} vs "
            f"{replicated.decision_counts}"
        )
    return failures


def oracle_replication_identity(duration_s: float = 10.0, seed: int = 0) -> OracleOutcome:
    """An N=1 replicated control plane is the single-server plane, exactly.

    Two specs of the one plane builder
    (:class:`~repro.phi.plane.PlaneSpec`): one :class:`ContextServer`
    behind one control channel, and ``ReplicationConfig(n_replicas=1)``
    — a replica handle behind its one channel, the anti-entropy
    machinery present with nothing to do.  Both put the one failover
    channel over their channel.  They must agree bit-for-bit, *including
    the event count*: the replication layer schedules no anti-entropy
    ticks for a single replica, and jitters draw only on failure paths.
    The clean pair runs at ``seed`` for ``duration_s``; the faulted pairs
    (every :data:`IDENTITY_UNAVAILABILITY` on every
    :data:`IDENTITY_FAULT_SEEDS`, :data:`IDENTITY_FAULT_DURATION_S`
    each) hold the same identity while the server goes down and the
    failover channel benches it.
    """
    failures = identity_pair_failures(seed, duration_s)
    for unavailability in IDENTITY_UNAVAILABILITY:
        for fault_seed in IDENTITY_FAULT_SEEDS:
            failures.extend(
                f"unavailability={unavailability:g} seed={fault_seed}: {failure}"
                for failure in identity_pair_failures(
                    fault_seed,
                    IDENTITY_FAULT_DURATION_S,
                    unavailability=unavailability,
                    outage_period_s=2.0,
                    staleness_ttl_s=2.0,
                )
            )
    return OracleOutcome(
        name="replication-identity",
        passed=not failures,
        failures=failures,
        details={
            "clean_pairs": 1,
            "faulted_pairs": len(IDENTITY_UNAVAILABILITY) * len(IDENTITY_FAULT_SEEDS),
        },
    )


def oracle_replica_convergence(duration_s: float = 10.0, seed: int = 0) -> OracleOutcome:
    """Post-heal anti-entropy drives replica divergence below epsilon.

    Three replicas, anti-entropy every second; one replica is severed
    from its peers while divergent traffic reports land on the majority
    side; divergence must be visible while the partition stands, then
    fall below ``CONVERGENCE_EPSILON`` within ``CONVERGENCE_ROUNDS``
    anti-entropy periods of the heal — the bounded-convergence guarantee
    the X7 experiment leans on.  Deterministic: no RNG is involved, so
    ``seed`` only labels the outcome.
    """
    n_replicas, period_s = 3, 1.0
    epsilon, rounds = CONVERGENCE_EPSILON, CONVERGENCE_ROUNDS
    sim = Simulator()
    capacity_bps = 10e6
    service = ReplicatedContextService(
        sim,
        capacity_bps,
        config=ReplicationConfig(
            n_replicas=n_replicas, anti_entropy_period_s=period_s
        ),
    )
    isolated = n_replicas - 1
    for peer in range(isolated):
        service.sever(peer, isolated)

    def feed(flow_id: int) -> None:
        # ~2 Mbps of goodput per report, all landing on replica 0: the
        # majority's utilization estimate rises, the isolated replica's
        # stays at zero.
        service.handle(0).report(
            ConnectionReport(
                flow_id=flow_id,
                reported_at=sim.now,
                bytes_transferred=250_000,
                duration_s=1.0,
                mean_rtt_s=0.05,
                min_rtt_s=0.04,
                loss_indicator=0.0,
            )
        )

    partition_end_s = duration_s / 2
    feed_count = max(2, int(partition_end_s) - 1)
    for index in range(feed_count):
        sim.schedule_at(0.5 + index, feed, index + 1)

    def heal() -> None:
        for peer in range(isolated):
            service.heal(peer, isolated)

    sim.schedule_at(partition_end_s, heal)
    sim.run(until=duration_s)

    failures: List[str] = []
    during = [
        d for t, d in service.divergence_history
        if t <= partition_end_s
    ]
    if not during or max(during) <= epsilon:
        failures.append(
            f"no divergence observed during the partition "
            f"(max {max(during) if during else 0.0:g}); oracle has no signal"
        )
    deadline = partition_end_s + rounds * period_s
    post_deadline = [
        (t, d) for t, d in service.divergence_history if t > deadline
    ]
    converged_by = next(
        (
            t for t, d in service.divergence_history
            if t > partition_end_s and d <= epsilon
        ),
        None,
    )
    if converged_by is None or converged_by > deadline:
        failures.append(
            f"divergence not below {epsilon:g} within {rounds} rounds of the "
            f"heal (deadline t={deadline:g}, converged at {converged_by})"
        )
    for t, d in post_deadline:
        if d > epsilon:
            failures.append(
                f"divergence re-opened after convergence: {d:g} at t={t:g}"
            )
            break
    final = service.replica_divergence()
    if final > epsilon:
        failures.append(f"final divergence {final:g} > {epsilon:g}")
    if service.anti_entropy_merges == 0 or service.reports_replicated == 0:
        failures.append(
            f"anti-entropy did no work: merges={service.anti_entropy_merges} "
            f"reports_replicated={service.reports_replicated}"
        )
    return OracleOutcome(
        name="replica-convergence",
        passed=not failures,
        failures=failures,
        details={
            "max_divergence": max(during) if during else 0.0,
            "converged_at": converged_by,
            "deadline": deadline,
            "anti_entropy_merges": service.anti_entropy_merges,
            "reports_replicated": service.reports_replicated,
        },
    )


#: Oracle registry for the CLI: name -> zero-config callable.
ORACLES = {
    "checked-vs-unchecked": oracle_checked_vs_unchecked,
    "flow-permutation": oracle_flow_permutation,
    "serial-vs-parallel": oracle_serial_vs_parallel,
    "grid-permutation": oracle_grid_permutation,
    "time-dilation": oracle_time_dilation,
    "unit-rescale": oracle_unit_rescale,
    "replication-identity": oracle_replication_identity,
    "replica-convergence": oracle_replica_convergence,
}


def run_oracles(
    names: Optional[Sequence[str]] = None,
    duration_s: float = 10.0,
    seed: int = 0,
) -> List[OracleOutcome]:
    """Run the selected oracles (all by default) and return their outcomes."""
    selected = list(ORACLES) if not names else list(names)
    outcomes: List[OracleOutcome] = []
    for name in selected:
        try:
            oracle = ORACLES[name]
        except KeyError:
            raise ValueError(
                f"unknown oracle {name!r}; known: {', '.join(sorted(ORACLES))}"
            ) from None
        if name == "unit-rescale":
            outcomes.append(oracle())
        elif name in ("serial-vs-parallel", "grid-permutation"):
            # Sweeps run several points; keep each one short.
            outcomes.append(oracle(duration_s=min(duration_s, 5.0), seed=seed))
        else:
            outcomes.append(oracle(duration_s=duration_s, seed=seed))
    return outcomes
