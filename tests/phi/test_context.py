"""Tests for the congestion context and level discretization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phi.context import (
    CongestionContext,
    CongestionLevel,
)


class TestCongestionContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            CongestionContext(utilization=1.5, queue_delay_s=0, competing_senders=0)
        with pytest.raises(ValueError):
            CongestionContext(utilization=0.5, queue_delay_s=-1, competing_senders=0)
        with pytest.raises(ValueError):
            CongestionContext(utilization=0.5, queue_delay_s=0, competing_senders=-1)

    def test_idle_context(self):
        ctx = CongestionContext.idle()
        assert ctx.level() is CongestionLevel.LOW
        assert ctx.timestamp == 0.0

    def test_low_utilization_level(self):
        ctx = CongestionContext(utilization=0.2, queue_delay_s=0.0, competing_senders=1)
        assert ctx.level() is CongestionLevel.LOW

    def test_moderate_level(self):
        ctx = CongestionContext(utilization=0.5, queue_delay_s=0.0, competing_senders=1)
        assert ctx.level() is CongestionLevel.MODERATE

    def test_high_level(self):
        ctx = CongestionContext(utilization=0.8, queue_delay_s=0.0, competing_senders=1)
        assert ctx.level() is CongestionLevel.HIGH

    def test_severe_level(self):
        ctx = CongestionContext(utilization=0.95, queue_delay_s=0.0, competing_senders=1)
        assert ctx.level() is CongestionLevel.SEVERE

    def test_queue_delay_escalates_level(self):
        # Low utilization but a deep queue still means congestion.
        ctx = CongestionContext(
            utilization=0.1, queue_delay_s=0.3, competing_senders=1
        )
        assert ctx.level() is CongestionLevel.SEVERE

    def test_worst_metric_wins(self):
        ctx = CongestionContext(
            utilization=0.7, queue_delay_s=0.001, competing_senders=1
        )
        assert ctx.level() is CongestionLevel.HIGH

    def test_level_ordering(self):
        assert CongestionLevel.LOW.rank < CongestionLevel.MODERATE.rank
        assert CongestionLevel.MODERATE.rank < CongestionLevel.HIGH.rank
        assert CongestionLevel.HIGH.rank < CongestionLevel.SEVERE.rank

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=1000),
    )
    @settings(max_examples=100)
    def test_level_total_and_monotone_in_utilization(self, u, q, n):
        ctx = CongestionContext(u, q, n)
        level = ctx.level()
        assert level in CongestionLevel
        # Raising utilization never lowers the level.
        higher = CongestionContext(min(1.0, u + 0.3), q, n)
        assert higher.level().rank >= level.rank


class TestNonFiniteRejection:
    """Satellite: NaN/inf slipped past the old `< 0`-style range checks."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["utilization", "queue_delay_s", "competing_senders", "timestamp",
         "fair_share_mbps"],
    )
    def test_every_field_rejects_non_finite(self, field, bad):
        fields = dict(
            utilization=0.5, queue_delay_s=0.01, competing_senders=2.0,
            timestamp=0.0, fair_share_mbps=4.0,
        )
        fields[field] = bad
        with pytest.raises(ValueError, match="must be finite"):
            CongestionContext(**fields)

    def test_none_fair_share_still_allowed(self):
        ctx = CongestionContext(
            utilization=0.5, queue_delay_s=0.01, competing_senders=2.0,
        )
        assert ctx.fair_share_mbps is None


class TestBucketBoundaries:
    """Exact-threshold semantics: `_bucket` uses strict `<` (a value AT an
    ascending threshold belongs to the next level up), `_bucket_descending`
    uses strict `>` (a fair share AT a threshold is already congested)."""

    def _ctx(self, u=0.0, q=0.0, n=1.0, fair=None):
        return CongestionContext(
            utilization=u, queue_delay_s=q, competing_senders=n,
            fair_share_mbps=fair,
        )

    @pytest.mark.parametrize("u, expected", [
        (0.35, CongestionLevel.MODERATE),   # at threshold: escalates
        (0.3499999, CongestionLevel.LOW),   # just below: stays
        (0.65, CongestionLevel.HIGH),
        (0.6499999, CongestionLevel.MODERATE),
        (0.90, CongestionLevel.SEVERE),
        (0.8999999, CongestionLevel.HIGH),
    ])
    def test_utilization_thresholds(self, u, expected):
        assert self._ctx(u=u).level() is expected

    @pytest.mark.parametrize("q, expected", [
        (0.010, CongestionLevel.MODERATE),
        (0.00999, CongestionLevel.LOW),
        (0.050, CongestionLevel.HIGH),
        (0.04999, CongestionLevel.MODERATE),
        (0.200, CongestionLevel.SEVERE),
        (0.19999, CongestionLevel.HIGH),
    ])
    def test_queue_delay_thresholds(self, q, expected):
        assert self._ctx(q=q).level() is expected

    @pytest.mark.parametrize("fair, expected", [
        # Descending buckets: a value exactly AT a threshold fails the
        # strict `>` test, so it lands one level more congested.
        (8.0, CongestionLevel.MODERATE),
        (8.0000001, CongestionLevel.LOW),
        (2.0, CongestionLevel.HIGH),
        (2.0000001, CongestionLevel.MODERATE),
        (0.5, CongestionLevel.SEVERE),
        (0.5000001, CongestionLevel.HIGH),
    ])
    def test_fair_share_thresholds(self, fair, expected):
        assert self._ctx(fair=fair).level() is expected

    def test_threshold_constants_are_ordered(self):
        from repro.phi.context import (
            FAIR_SHARE_THRESHOLDS_MBPS,
            QUEUE_DELAY_THRESHOLDS,
            UTILIZATION_THRESHOLDS,
        )

        assert list(UTILIZATION_THRESHOLDS) == sorted(UTILIZATION_THRESHOLDS)
        assert list(QUEUE_DELAY_THRESHOLDS) == sorted(QUEUE_DELAY_THRESHOLDS)
        assert list(FAIR_SHARE_THRESHOLDS_MBPS) == sorted(
            FAIR_SHARE_THRESHOLDS_MBPS, reverse=True
        )
