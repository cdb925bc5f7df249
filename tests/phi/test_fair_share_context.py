"""Tests for the fair-share dimension of the congestion context."""

import pytest

from repro.phi import CongestionContext, CongestionLevel, ContextServer
from repro.phi.context import FAIR_SHARE_THRESHOLDS_MBPS
from repro.simnet import Simulator


class TestFairShareBucket:
    def _ctx(self, fair_share):
        return CongestionContext(
            utilization=0.0,
            queue_delay_s=0.0,
            competing_senders=1.0,
            fair_share_mbps=fair_share,
        )

    def test_abundant_share_is_low(self):
        assert self._ctx(50.0).level() is CongestionLevel.LOW

    def test_moderate_share(self):
        assert self._ctx(5.0).level() is CongestionLevel.MODERATE

    def test_scarce_share_is_high(self):
        assert self._ctx(1.0).level() is CongestionLevel.HIGH

    def test_starved_share_is_severe(self):
        assert self._ctx(0.1).level() is CongestionLevel.SEVERE

    def test_thresholds_are_descending(self):
        assert list(FAIR_SHARE_THRESHOLDS_MBPS) == sorted(
            FAIR_SHARE_THRESHOLDS_MBPS, reverse=True
        )

    def test_without_fair_share_level_unchanged(self):
        ctx = CongestionContext(0.1, 0.0, 100.0)
        assert ctx.level() is CongestionLevel.LOW

    def test_worst_metric_still_wins(self):
        # Plenty of fair share but saturated utilization: SEVERE.
        ctx = CongestionContext(0.95, 0.0, 1.0, fair_share_mbps=100.0)
        assert ctx.level() is CongestionLevel.SEVERE

    def test_negative_fair_share_rejected(self):
        with pytest.raises(ValueError):
            CongestionContext(0.1, 0.0, 1.0, fair_share_mbps=-1.0)


class TestServerFairShare:
    def test_lookup_burst_escalates_level_in_real_time(self):
        """The server's live n signal escalates congestion classification
        before any report arrives — the mechanism that keeps the
        practical mode from flying blind at connection-start bursts."""
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        assert server.lookup().level() is CongestionLevel.LOW
        for __ in range(8):
            server.lookup()
        # 9 active connections over 15 Mbps -> ~1.7 Mbps fair share.
        ctx = server.current_context()
        assert ctx.fair_share_mbps == pytest.approx(15.0 / 9, rel=0.01)
        assert ctx.level() is CongestionLevel.HIGH

    def test_reports_deescalate(self):
        from repro.phi.server import ConnectionReport

        sim = Simulator()
        server = ContextServer(sim, 15e6)
        for __ in range(9):
            server.lookup()
        for flow_id in range(8):
            server.report(
                ConnectionReport(
                    flow_id=flow_id,
                    reported_at=0.0,
                    bytes_transferred=1_000,
                    duration_s=0.01,
                    mean_rtt_s=0.15,
                    min_rtt_s=0.15,
                    loss_indicator=0.0,
                )
            )
        assert server.current_context().level() is CongestionLevel.LOW
