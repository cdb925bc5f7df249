"""Tests for power metrics and run summaries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    RunMetrics,
    log_power,
    power,
    power_with_loss,
    summarize_connections,
    summarize_runs,
)
from repro.transport.base import ConnectionStats


class TestPowerFunctions:
    def test_power_basic(self):
        assert power(10.0, 5.0) == 2.0

    def test_power_with_loss(self):
        assert power_with_loss(10.0, 5.0, 0.5) == 1.0

    def test_zero_loss_equals_plain_power(self):
        assert power_with_loss(3.0, 2.0, 0.0) == power(3.0, 2.0)

    def test_total_loss_zeroes_power(self):
        assert power_with_loss(3.0, 2.0, 1.0) == 0.0

    def test_log_power(self):
        assert log_power(math.e, 1.0) == pytest.approx(1.0)

    def test_log_power_zero_throughput(self):
        assert log_power(0.0, 1.0) == -math.inf

    def test_delay_floor(self):
        assert power(1.0, 0.0) == power(1.0, 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            power(-1.0, 1.0)
        with pytest.raises(ValueError):
            power(1.0, -1.0)
        with pytest.raises(ValueError):
            power_with_loss(1.0, 1.0, 1.5)

    @given(
        st.floats(min_value=0.01, max_value=1000),
        st.floats(min_value=0.01, max_value=1000),
        st.floats(min_value=0, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_loss_monotonically_reduces_power(self, r, d, l):
        assert power_with_loss(r, d, l) <= power(r, d)

    @given(
        st.floats(min_value=0.01, max_value=1000),
        st.floats(min_value=0.01, max_value=1000),
    )
    @settings(max_examples=100)
    def test_power_monotone_in_throughput_and_delay(self, r, d):
        assert power(r * 2, d) > power(r, d)
        assert power(r, d * 2) < power(r, d)


class TestNonFiniteInputsRejected:
    """Regression: NaN/inf must be rejected, not silently propagated.

    A NaN throughput used to flow straight through ``power`` into sweep
    summaries (NaN compares false with everything, so the optimizer's
    argmax silently skipped the poisoned point instead of failing)."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_power_rejects_non_finite_throughput(self, bad):
        with pytest.raises(ValueError):
            power(bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_power_rejects_non_finite_delay(self, bad):
        with pytest.raises(ValueError):
            power(1.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_power_with_loss_rejects_non_finite_loss(self, bad):
        with pytest.raises(ValueError):
            power_with_loss(1.0, 1.0, bad)

    def test_power_with_loss_rejects_non_finite_rate_and_delay(self):
        with pytest.raises(ValueError):
            power_with_loss(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            power_with_loss(1.0, math.inf, 0.0)

    def test_log_power_still_allows_zero_throughput(self):
        # By design: log power of an idle run is -inf, not an error.
        assert log_power(0.0, 1.0) == -math.inf


def conn(goodput=100_000, duration=1.0, rtts=(0.15, 0.17), min_rtt=0.15,
         packets=100, retrans=0):
    stats = ConnectionStats(flow_id=1)
    stats.start_time = 0.0
    stats.end_time = duration
    stats.bytes_goodput = goodput
    stats.rtt_samples = list(rtts)
    stats.min_rtt = min_rtt
    stats.packets_sent = packets
    stats.retransmits = retrans
    return stats


class TestSummarizeConnections:
    def test_empty_gives_zero_metrics(self):
        metrics = summarize_connections([])
        assert metrics.throughput_mbps == 0.0
        assert metrics.connections == 0

    def test_throughput_definition(self):
        # "throughput = bits transferred / ontime"
        metrics = summarize_connections([conn(goodput=125_000, duration=1.0)])
        assert metrics.throughput_mbps == pytest.approx(1.0)

    def test_two_connections_pool_on_time(self):
        metrics = summarize_connections(
            [conn(goodput=125_000, duration=1.0), conn(goodput=125_000, duration=3.0)]
        )
        assert metrics.throughput_mbps == pytest.approx(0.5)

    def test_a_connection_without_rtt_samples_weighs_nothing_in_delay(self):
        sampled = conn(rtts=(0.15, 0.25), min_rtt=0.15)
        metrics = summarize_connections([sampled, conn(rtts=())])
        assert metrics.queueing_delay_ms == summarize_connections([sampled]).queueing_delay_ms
        assert metrics.connections == 2

    def test_queueing_delay_is_rtt_inflation(self):
        metrics = summarize_connections(
            [conn(rtts=(0.15, 0.25), min_rtt=0.15)]
        )
        assert metrics.queueing_delay_ms == pytest.approx(50.0)

    def test_ground_truth_loss_preferred(self):
        metrics = summarize_connections([conn(retrans=50)], bottleneck_loss_rate=0.02)
        assert metrics.loss_rate == pytest.approx(0.02)

    def test_retransmit_fallback_loss(self):
        metrics = summarize_connections([conn(packets=100, retrans=4)])
        assert metrics.loss_rate == pytest.approx(0.04)

    def test_zero_goodput_connections_excluded(self):
        empty = ConnectionStats(flow_id=2)
        metrics = summarize_connections([conn(), empty])
        assert metrics.connections == 1

    def test_power_properties_consistent(self):
        metrics = summarize_connections([conn()])
        assert metrics.power == pytest.approx(
            metrics.throughput_mbps / metrics.queueing_delay_ms, rel=1e-6
        )
        assert metrics.power_l <= metrics.power

    def test_delay_floor_applied(self):
        metrics = summarize_connections([conn(rtts=(0.15,), min_rtt=0.15)])
        assert metrics.queueing_delay_ms >= 0.05


class TestSummarizeRuns:
    def _runs(self):
        return [
            RunMetrics(1.0, 10.0, 0.0, 5, 1000),
            RunMetrics(2.0, 20.0, 0.02, 5, 1000),
            RunMetrics(3.0, 30.0, 0.04, 5, 1000),
        ]

    def test_means_and_medians(self):
        summary = summarize_runs(self._runs())
        assert summary.mean_throughput_mbps == pytest.approx(2.0)
        assert summary.median_throughput_mbps == pytest.approx(2.0)
        assert summary.mean_queueing_delay_ms == pytest.approx(20.0)
        assert summary.runs == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])
