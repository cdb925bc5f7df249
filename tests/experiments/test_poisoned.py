"""Tests for the X6 Byzantine-context experiment harness."""

import pytest

from repro import telemetry
from repro.experiments.faultsweep import (
    FaultSpec,
    FaultSweepRow,
    Level,
    check_envelope,
    run_fault_sweep,
)
from repro.experiments.poisoned import POISON, run_poisoned_phi_cubic
from repro.experiments.scenarios import TABLE3_REMY, run_cubic_fixed
from repro.phi.policy import REFERENCE_POLICY
from repro.telemetry.manifest import fault_sweep_manifest, validate_manifest
from repro.transport.cubic import CubicParams

DURATION = 8.0


def poisoned(**overrides):
    kwargs = dict(
        severity=1.0, seed=0, modes=("garbage",), guarded=True,
        duration_s=DURATION,
    )
    kwargs.update(overrides)
    return run_poisoned_phi_cubic(REFERENCE_POLICY, TABLE3_REMY, **kwargs)


class TestRunValidation:
    def test_severity_range_enforced(self):
        with pytest.raises(ValueError, match="severity"):
            poisoned(severity=1.5)
        with pytest.raises(ValueError, match="severity"):
            poisoned(severity=-0.1)

    def test_byzantine_fraction_range_enforced(self):
        with pytest.raises(ValueError, match="byzantine_fraction"):
            poisoned(byzantine_fraction=2.0)


class TestGuardedRun:
    def test_garbage_at_full_severity_is_bitwise_baseline(self):
        """The hard safety floor: when every context is rejected, every
        connection runs stock defaults — the run is *bit-identical* to
        uncoordinated Cubic, not merely close."""
        run = poisoned()
        baseline = run_cubic_fixed(
            CubicParams.default(), TABLE3_REMY, seed=0, duration_s=DURATION
        )
        assert run.metrics == baseline.metrics
        decisions = run.decision_counts
        assert decisions["fresh"] == 0
        assert decisions["fallback"] > 0
        assert sum(run.guard_rejections.values()) == decisions["fallback"]

    def test_rejection_reasons_recorded(self):
        run = poisoned()
        assert set(run.guard_rejections) <= {"non_finite", "out_of_range"}
        assert run.contexts_corrupted == sum(run.guard_rejections.values())

    def test_byzantine_reports_poisoned_and_rejected(self):
        run = poisoned(severity=0.0, byzantine_fraction=1.0)
        assert run.reports_poisoned > 0
        # Robust aggregation drops the structurally invalid flavours.
        assert run.reports_rejected > 0


class TestUnguardedRun:
    def test_defences_absent(self):
        run = poisoned(guarded=False)
        assert run.guard_rejections == {}
        assert run.reports_rejected == 0
        assert run.trust_score == 1.0
        assert run.decision_counts["distrusted"] == 0
        # The lies flow straight through to the policy table.
        assert run.contexts_corrupted > 0
        assert run.decision_counts["fresh"] > 0


@pytest.mark.byzantine
class TestSweepDeterminism:
    def test_sweep_telemetry_and_manifest(self):
        with telemetry.use():
            outcome = run_fault_sweep(
                POISON, REFERENCE_POLICY, TABLE3_REMY,
                {"severity": (1.0,), "byzantine_fraction": (0.0,)},
                seeds=(0,), fixed={"modes": ("garbage",)},
                duration_s=DURATION, parallel=False, collect_telemetry=True,
            )
        counters = outcome.telemetry["counters"]
        assert any("phi.guard_rejections" in key for key in counters)
        manifest = fault_sweep_manifest(outcome)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "poison"
        point = manifest["points"][0]
        assert point["accounting"]["guard_rejections"]
        assert "decision_counts" in manifest["totals"]
        assert "baseline_power_by_seed" in manifest["totals"]


def row(power=1.0, tput=1.0, *, base_power=1.0, base_tput=1.0, severity=0.5):
    return FaultSweepRow(
        axes={"severity": severity, "byzantine_fraction": 0.0},
        mean_power_l=power,
        mean_throughput_mbps=tput,
        mean_delay_ms=1.0,
        accounting={},
        baselines={"baseline": Level(base_power, base_tput)},
    )


class FakeOutcome:
    spec = FaultSpec(scenario=POISON, preset=TABLE3_REMY, policy=REFERENCE_POLICY)

    def __init__(self, rows):
        self.rows = rows


class TestEnvelopeChecker:
    def test_holds_within_tolerance(self):
        outcome = FakeOutcome([row(0.97, 0.96)])
        assert check_envelope(outcome, rel_tol=0.05) == []

    def test_power_violation_reported(self):
        outcome = FakeOutcome([row(0.90, 1.0)])
        violations = check_envelope(outcome, rel_tol=0.05)
        assert len(violations) == 1
        assert "power" in violations[0]

    def test_throughput_violation_reported(self):
        """Power alone cannot show inflation harm (the delay floor makes
        conservative parameters look great); the checker must watch the
        throughput axis too."""
        outcome = FakeOutcome([row(5.0, 0.6)])
        violations = check_envelope(outcome, rel_tol=0.05)
        assert len(violations) == 1
        assert "throughput" in violations[0]

    def test_both_axes_can_fail_one_row(self):
        outcome = FakeOutcome([row(0.5, 0.5)])
        assert len(check_envelope(outcome, rel_tol=0.05)) == 2
