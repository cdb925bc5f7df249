"""Tests for outcome-driven trust tracking."""

import pytest

from repro.phi.context import CongestionLevel
from repro.phi.trust import (
    ADJACENT_CREDIT,
    DISTRUST_BELOW,
    LOSS_RATE_THRESHOLDS,
    MIN_SAMPLES,
    RESTORE_ABOVE,
    TRUST_ALPHA,
    TrustTracker,
    observed_level,
    observed_level_from_stats,
)
from repro.transport.base import ConnectionStats


class TestObservedLevel:
    def test_quiet_connection_is_low(self):
        assert observed_level(0.0, 0.0) is CongestionLevel.LOW

    def test_loss_alone_escalates(self):
        assert observed_level(0.0, 0.03) is CongestionLevel.HIGH
        assert observed_level(0.0, 0.2) is CongestionLevel.SEVERE

    def test_queueing_alone_escalates(self):
        assert observed_level(0.06, 0.0) is CongestionLevel.HIGH

    def test_worst_of_wins(self):
        assert observed_level(0.3, 0.001) is CongestionLevel.SEVERE

    def test_negative_inputs_clamped(self):
        assert observed_level(-1.0, -1.0) is CongestionLevel.LOW

    def test_loss_thresholds_ordered(self):
        assert list(LOSS_RATE_THRESHOLDS) == sorted(LOSS_RATE_THRESHOLDS)

    def test_from_stats(self):
        stats = ConnectionStats(flow_id=1)
        stats.start_time, stats.end_time = 0.0, 1.0
        stats.packets_sent = 100
        stats.retransmits = 10  # 10% loss -> SEVERE
        assert observed_level_from_stats(stats) is CongestionLevel.SEVERE


class TestTrustTracker:
    def test_starts_fully_trusting(self):
        tracker = TrustTracker()
        assert tracker.score == 1.0
        assert not tracker.distrusted

    def test_exact_matches_sustain_trust(self):
        tracker = TrustTracker()
        for _ in range(50):
            tracker.record(CongestionLevel.MODERATE, CongestionLevel.MODERATE)
        assert tracker.score == pytest.approx(1.0)
        assert not tracker.distrusted

    def test_adjacent_miss_is_cheap_two_level_miss_is_not(self):
        tracker = TrustTracker()
        tracker.record(CongestionLevel.LOW, CongestionLevel.MODERATE)
        assert tracker.score == pytest.approx(1 - TRUST_ALPHA * (1 - ADJACENT_CREDIT))
        before = tracker.score
        tracker.record(CongestionLevel.LOW, CongestionLevel.HIGH)
        assert tracker.score == pytest.approx((1 - TRUST_ALPHA) * before)  # no credit

    def test_sustained_lies_trip_distrust(self):
        tracker = TrustTracker()
        for _ in range(30):
            tracker.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert tracker.distrusted
        assert tracker.distrust_entries == 1

    def test_warmup_blocks_early_verdict(self):
        tracker = TrustTracker()
        for _ in range(MIN_SAMPLES - 1):
            tracker.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert tracker.score <= DISTRUST_BELOW
        assert not tracker.distrusted  # the score says distrust; warm-up holds
        tracker.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert tracker.distrusted

    def test_hysteresis_restores_only_after_sustained_accuracy(self):
        tracker = TrustTracker()
        for _ in range(MIN_SAMPLES):
            tracker.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert tracker.distrusted
        # Good outcomes climb the score back, but trust returns only once
        # it clears the top of the band: six in a row from 0.85**8.
        goods = 0
        while tracker.distrusted:
            assert tracker.score <= RESTORE_ABOVE
            tracker.record(CongestionLevel.LOW, CongestionLevel.LOW)
            goods += 1
        assert goods == 6
        assert tracker.score > RESTORE_ABOVE

    def test_band_prevents_flapping(self):
        """A score settling inside the band never toggles the state."""
        tracker = TrustTracker()
        for _ in range(100):
            tracker.record(CongestionLevel.LOW, CongestionLevel.MODERATE)
        # Adjacent credit 0.6 sits inside (0.4, 0.7]: trusted throughout ...
        assert not tracker.distrusted
        assert DISTRUST_BELOW < tracker.score <= RESTORE_ABOVE
        for _ in range(MIN_SAMPLES):
            tracker.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert tracker.distrusted
        for _ in range(100):
            tracker.record(CongestionLevel.LOW, CongestionLevel.MODERATE)
        # ... and distrusted throughout on the way back.
        assert tracker.distrusted
        assert tracker.distrust_entries == 1  # never restored and re-entered

    def test_record_outcome_from_stats(self):
        tracker = TrustTracker()
        stats = ConnectionStats(flow_id=1)
        stats.start_time, stats.end_time = 0.0, 1.0
        stats.packets_sent = 100
        stats.retransmits = 10  # SEVERE: two or more levels from LOW
        tracker.record_outcome(CongestionLevel.LOW, stats)
        assert tracker.score == pytest.approx(1 - TRUST_ALPHA)  # no credit

    def test_telemetry(self):
        from repro import telemetry

        with telemetry.use() as tele:
            tracker = TrustTracker()
            for _ in range(MIN_SAMPLES):
                tracker.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
            snapshot = tele.registry.snapshot()
        assert snapshot["gauges"]["phi.trust_score"]["value"] == tracker.score
        assert (
            snapshot["counters"]["phi.trust_transitions{to_state=distrusted}"]
            == 1.0
        )
