"""Tests for the context guardrails."""

import math

import pytest

from repro.phi.context import CongestionContext
from repro.phi.corruption import raw_context
from repro.phi.guard import (
    GUARD_REASONS,
    REASON_FUTURE_TIMESTAMP,
    REASON_INCONSISTENT,
    REASON_NON_FINITE,
    REASON_OUT_OF_RANGE,
    REASON_RATE_OF_CHANGE,
    MAX_QUEUE_DELAY_S,
    ContextGuard,
    GuardVerdict,
)

#: The Table-3 bottleneck: ``honest()``'s fair share is 15 / 8 Mbit/s.
CAPACITY_MBPS = 15.0


def honest(timestamp=0.0, **overrides):
    fields = dict(
        utilization=0.6,
        queue_delay_s=0.04,
        competing_senders=8.0,
        timestamp=timestamp,
        fair_share_mbps=1.875,
    )
    fields.update(overrides)
    return CongestionContext(**fields)


class TestVerdict:
    def test_truthiness(self):
        assert GuardVerdict(True)
        assert not GuardVerdict(False, REASON_NON_FINITE)


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        for capacity in (0.0, -1.0, float("nan"), math.inf):
            with pytest.raises(ValueError):
                ContextGuard(capacity)


class TestStaticChecks:
    def test_accepts_honest_context(self):
        guard = ContextGuard(CAPACITY_MBPS)
        context = honest()
        verdict = guard.validate(context)
        assert verdict.accepted

    def test_rejects_nan(self):
        guard = ContextGuard(CAPACITY_MBPS)
        verdict = guard.validate(raw_context(float("nan"), 0.0, 1.0, 0.0, None))
        assert verdict.reason == REASON_NON_FINITE

    def test_rejects_inf_fair_share(self):
        guard = ContextGuard(CAPACITY_MBPS)
        verdict = guard.validate(
            raw_context(0.5, 0.0, 1.0, 0.0, math.inf)
        )
        assert verdict.reason == REASON_NON_FINITE

    def test_rejects_out_of_range(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(raw_context(1.5, 0.0, 1.0, 0.0, None)).reason == REASON_OUT_OF_RANGE
        assert guard.validate(raw_context(0.5, -1.0, 1.0, 0.0, None)).reason == REASON_OUT_OF_RANGE
        assert guard.validate(raw_context(0.5, 0.0, -2.0, 0.0, None)).reason == REASON_OUT_OF_RANGE

    def test_rejects_absurd_queue_delay(self):
        guard = ContextGuard(CAPACITY_MBPS)
        verdict = guard.validate(honest(queue_delay_s=MAX_QUEUE_DELAY_S + 10.0))
        assert verdict.reason == REASON_OUT_OF_RANGE

    def test_rejects_future_timestamp_with_clock(self):
        guard = ContextGuard(CAPACITY_MBPS, now=lambda: 10.0)
        verdict = guard.validate(honest(timestamp=30.0))
        assert verdict.reason == REASON_FUTURE_TIMESTAMP

    def test_no_clock_no_future_check(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(honest(timestamp=1e9)).accepted


class TestRateOfChange:
    def test_teleporting_utilization_rejected(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(honest(utilization=0.1)).accepted
        verdict = guard.validate(honest(utilization=0.9, timestamp=0.1))
        assert verdict.reason == REASON_RATE_OF_CHANGE

    def test_slew_allows_change_given_time(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(honest(utilization=0.1, timestamp=0.0)).accepted
        # 0.8 jump over 10 s: allowed envelope is 0.5 + 0.5*10 = 5.5.
        assert guard.validate(honest(utilization=0.9, timestamp=10.0)).accepted

    def test_rejected_snapshot_not_rate_baseline(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(honest(utilization=0.1)).accepted
        assert not guard.validate(honest(utilization=0.9, timestamp=0.1))
        # Baseline is still the accepted 0.1 snapshot: 0.55 is within its
        # 0.5 + 0.5*0.2 envelope (not within 0.9's, the other way).
        assert guard.validate(honest(utilization=0.55, timestamp=0.2)).accepted

    def test_queue_delay_rate_checked(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(honest(queue_delay_s=0.01)).accepted
        verdict = guard.validate(honest(queue_delay_s=0.5, timestamp=0.1))
        assert verdict.reason == REASON_RATE_OF_CHANGE


class TestConsistency:
    def test_fair_share_must_match_capacity_over_n(self):
        guard = ContextGuard(CAPACITY_MBPS)
        # 15 / 8 = 1.875: honest() is consistent.
        assert guard.validate(honest()).accepted
        verdict = guard.validate(honest(fair_share_mbps=9.0, timestamp=1.0))
        assert verdict.reason == REASON_INCONSISTENT

    def test_without_fair_share_no_consistency_check(self):
        guard = ContextGuard(CAPACITY_MBPS)
        assert guard.validate(honest(fair_share_mbps=None)).accepted

    def test_self_consistent_lie_passes_the_guard(self):
        """The guard's documented blind spot: trust must catch this one."""
        guard = ContextGuard(CAPACITY_MBPS)
        lie = honest(
            utilization=0.0, queue_delay_s=0.0, competing_senders=1.0,
            fair_share_mbps=15.0,
        )
        assert guard.validate(lie).accepted


class TestAccounting:
    def test_rejections_counted_by_reason(self):
        guard = ContextGuard(CAPACITY_MBPS)
        guard.validate(raw_context(float("nan"), 0.0, 1.0, 0.0, None))
        guard.validate(raw_context(float("nan"), 0.0, 1.0, 0.0, None))
        guard.validate(raw_context(2.0, 0.0, 1.0, 0.0, None))
        assert guard.rejection_counts() == {
            REASON_NON_FINITE: 2,
            REASON_OUT_OF_RANGE: 1,
        }

    def test_reasons_are_registered(self):
        assert REASON_RATE_OF_CHANGE in GUARD_REASONS
        assert len(set(GUARD_REASONS)) == len(GUARD_REASONS)

    def test_telemetry_counters(self):
        from repro import telemetry

        guard = ContextGuard(CAPACITY_MBPS)
        with telemetry.use() as tele:
            guard.validate(raw_context(float("nan"), 0.0, 1.0, 0.0, None))
            guard.validate(raw_context(3.0, 0.0, 1.0, 0.0, None))
            counters = tele.registry.snapshot()["counters"]
        assert counters["phi.guard_rejections{reason=non_finite}"] == 1.0
        assert counters["phi.guard_rejections{reason=out_of_range}"] == 1.0
