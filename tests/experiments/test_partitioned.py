"""Tests for the X7 partition-tolerance experiment harness."""

import pytest

from repro import telemetry
from repro.experiments.faultsweep import (
    FaultSpec,
    FaultSweepRow,
    Level,
    check_envelope,
    run_fault_sweep,
)
from repro.experiments.partitioned import (
    PARTITION,
    is_minority_cut,
    run_partitioned_phi_cubic,
)
from repro.experiments.scenarios import ScenarioPreset
from repro.phi.plane import partition_indices
from repro.phi.policy import REFERENCE_POLICY
from repro.simnet import DumbbellConfig
from repro.telemetry.manifest import fault_sweep_manifest, validate_manifest
from repro.workload import OnOffConfig

FAST = ScenarioPreset(
    name="partition-mini",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=0.5),
    duration_s=25.0,
    description="small partition-tolerance smoke scenario",
)

DURATION = 25.0
START = 10.0  # past the staleness TTL — see the calibration caveat


def partitioned(**overrides):
    kwargs = dict(
        n_replicas=3, severity=0.34, heal_s=8.0, partition_start_s=START,
        seed=0, duration_s=DURATION,
    )
    kwargs.update(overrides)
    return run_partitioned_phi_cubic(REFERENCE_POLICY, FAST, **kwargs)


class TestPartitionIndices:
    def test_rounding_and_order(self):
        assert partition_indices(3, 0.0) == ([], [0, 1, 2])
        assert partition_indices(3, 0.34) == ([0], [1, 2])
        assert partition_indices(3, 0.5) == ([0, 1], [2])
        assert partition_indices(3, 1.0) == ([0, 1, 2], [])
        assert partition_indices(1, 1.0) == ([0], [])

    def test_lowest_indices_cut_first(self):
        """Replica 0 is every client's initial sticky choice — cutting it
        first is what makes a nonzero severity actually dislodge the
        serving replica."""
        cut, kept = partition_indices(5, 0.4)
        assert cut == [0, 1]
        assert kept == [2, 3, 4]


class TestRunValidation:
    def test_severity_range_enforced(self):
        with pytest.raises(ValueError, match="severity"):
            partitioned(severity=1.5)
        with pytest.raises(ValueError, match="severity"):
            partitioned(severity=-0.1)

    def test_replica_count_enforced(self):
        with pytest.raises(ValueError, match="n_replicas"):
            partitioned(n_replicas=0)

    def test_negative_heal_rejected(self):
        with pytest.raises(ValueError, match="heal"):
            partitioned(heal_s=-1.0)


class TestMinorityPartitionRun:
    def test_failover_masks_minority_cut(self):
        """Cutting replica 0 of 3 must trigger failover and keep every
        decision FRESH — the client never falls back to defaults."""
        run = partitioned()
        assert run.n_cut == 1
        assert run.failovers >= 1
        assert run.anti_entropy_merges > 0
        assert run.decision_counts.get("fallback", 0) == 0
        assert run.decision_counts["fresh"] > 0

    def test_healthy_replicas_merge_but_never_fail_over(self):
        run = partitioned(severity=0.0, duration_s=8.0)
        assert run.n_cut == 0
        assert run.failovers == 0
        assert run.anti_entropy_merges > 0

    def test_divergence_opens_then_closes(self):
        run = partitioned()
        assert run.max_divergence > 0
        assert run.final_divergence == pytest.approx(0.0, abs=1e-9)

    def test_full_cut_forces_fallback(self):
        run = partitioned(severity=1.0, heal_s=DURATION)
        assert run.n_cut == 3
        assert run.decision_counts.get("fallback", 0) > 0


@pytest.mark.partition
class TestSweepDeterminism:
    def test_sweep_telemetry_and_manifest(self):
        with telemetry.use():
            outcome = run_fault_sweep(
                PARTITION, REFERENCE_POLICY, FAST,
                {"n_replicas": (3,), "severity": (0.34,), "heal_s": (8.0,)},
                seeds=(0,), fixed={"partition_start_s": START}, duration_s=DURATION,
                parallel=False, collect_telemetry=True,
            )
        counters = outcome.telemetry["counters"]
        assert any("phi.replica_rpc_calls" in key for key in counters)
        manifest = fault_sweep_manifest(outcome)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "partition"
        point = manifest["points"][0]
        assert point["accounting"]["failovers"] >= 1
        assert "stock_power_by_seed" in manifest["totals"]
        assert "degraded_power_by_heal_seed" in manifest["totals"]

    def test_minority_row_meets_both_floors(self):
        outcome = run_fault_sweep(
            PARTITION, REFERENCE_POLICY, FAST,
            {"n_replicas": (3,), "severity": (0.34,), "heal_s": (8.0,)},
            seeds=(0,), fixed={"partition_start_s": START}, duration_s=DURATION,
            parallel=False,
        )
        assert check_envelope(outcome, rel_tol=0.05) == []
        (row,) = outcome.rows
        assert is_minority_cut(row)
        assert row.vs("degraded").power_l >= 0.95
        assert row.vs("degraded").throughput_mbps >= 0.95


def row(
    power=1.0, tput=1.0, *, stock_power=1.0, stock_tput=1.0,
    degraded_power=0.8, degraded_tput=0.9, n_replicas=3, n_cut=1,
):
    return FaultSweepRow(
        axes={"n_replicas": n_replicas, "severity": 0.34, "heal_s": 8.0},
        mean_power_l=power,
        mean_throughput_mbps=tput,
        mean_delay_ms=1.0,
        accounting={"n_cut": n_cut},
        baselines={
            "stock": Level(stock_power, stock_tput),
            "degraded": Level(degraded_power, degraded_tput),
        },
    )


class FakeOutcome:
    spec = FaultSpec(scenario=PARTITION, preset=FAST, policy=REFERENCE_POLICY)

    def __init__(self, rows):
        self.rows = rows


class TestEnvelopeChecker:
    def test_holds_within_tolerance(self):
        outcome = FakeOutcome([row(0.97, 0.96)])
        assert check_envelope(outcome, rel_tol=0.05) == []

    def test_stock_power_floor(self):
        outcome = FakeOutcome([row(0.90, 1.0, n_cut=3)])
        violations = check_envelope(outcome, rel_tol=0.05)
        assert len(violations) == 1
        assert "stock floor" in violations[0] and "power" in violations[0]

    def test_stock_throughput_floor(self):
        outcome = FakeOutcome([row(1.0, 0.90, n_cut=3)])
        violations = check_envelope(outcome, rel_tol=0.05)
        assert len(violations) == 1
        assert "throughput" in violations[0]

    def test_degraded_floor_only_for_minority_multireplica(self):
        # Above stock but below degraded: flagged only when the cut is a
        # strict minority of the plane's replicas (so never with < 3).
        weak = dict(power=0.97, tput=0.97, degraded_power=1.1, degraded_tput=1.1)
        flagged = check_envelope(
            FakeOutcome([row(**weak, n_replicas=3, n_cut=1)]), rel_tol=0.05
        )
        assert len(flagged) == 2
        assert all("degraded floor" in v for v in flagged)
        for n_replicas, n_cut in ((3, 3), (3, 2), (3, 0), (2, 1), (1, 1)):
            spared = check_envelope(
                FakeOutcome([row(**weak, n_replicas=n_replicas, n_cut=n_cut)]),
                rel_tol=0.05,
            )
            assert spared == [], (n_replicas, n_cut)
