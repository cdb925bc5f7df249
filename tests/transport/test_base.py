"""Tests for the shared TCP machinery: windows, recovery, RTO, stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Simulator,
)
from repro.transport.base import (
    MAX_RTO_S,
    MIN_RTO_S,
    ConnectionStats,
    RttEstimator,
    TcpSender,
)
from repro.transport.sink import TcpSink


def run_single_flow(
    flow_bytes,
    sender_cls=TcpSender,
    config=None,
    until=120.0,
    **sender_kwargs,
):
    """Run one flow over a fresh dumbbell; returns (sender, topology, sim)."""
    sim = Simulator()
    cfg = config or DumbbellConfig(n_senders=1)
    top = DumbbellTopology(sim, cfg)
    spec = FlowSpec(1, top.senders[0].name, 10_000, top.receivers[0].name, 443)
    done = []
    sink = TcpSink(sim, top.receivers[0], spec)
    sender = sender_cls(
        sim,
        top.senders[0],
        spec,
        flow_bytes,
        done.append,
        **sender_kwargs,
    )
    sender.start()
    sim.run(until=until)
    return sender, top, sim, done


class TestBasicTransfer:
    def test_small_flow_completes(self):
        sender, _, _, done = run_single_flow(10_000)
        assert done and sender.stats.completed
        assert sender.stats.bytes_goodput == 10_000

    def test_large_flow_completes(self):
        sender, _, _, done = run_single_flow(2_000_000)
        assert done
        assert sender.stats.bytes_goodput == 2_000_000

    def test_throughput_bounded_by_bottleneck(self):
        sender, top, _, _ = run_single_flow(2_000_000)
        assert sender.stats.throughput_bps <= top.config.bottleneck_bandwidth_bps

    def test_rtt_samples_near_base_rtt_when_uncongested(self):
        sender, top, _, _ = run_single_flow(50_000)
        assert sender.stats.min_rtt == pytest.approx(top.config.rtt_s, rel=0.15)

    def test_single_segment_flow(self):
        sender, _, _, done = run_single_flow(100)
        assert done and sender.stats.completed

    def test_duration_positive(self):
        sender, _, _, _ = run_single_flow(10_000)
        assert sender.stats.duration > 0

    def test_cannot_start_twice(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = TcpSender(sim, top.senders[0], spec, 1000)
        sender.start()
        with pytest.raises(RuntimeError):
            sender.start()

    def test_invalid_flow_size_rejected(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        with pytest.raises(ValueError):
            TcpSender(sim, top.senders[0], spec, 0)

    def test_invalid_window_params_rejected(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        with pytest.raises(ValueError):
            TcpSender(sim, top.senders[0], spec, 1000, window_init=0.5)
        with pytest.raises(ValueError):
            TcpSender(sim, top.senders[0], spec, 1000, initial_ssthresh=1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="window_init"):
                TcpSender(sim, top.senders[0], spec, 1000, window_init=value)
            with pytest.raises(ValueError, match="initial_ssthresh"):
                TcpSender(sim, top.senders[0], spec, 1000, initial_ssthresh=value)


class TestSlowStartAndWindow:
    def test_slow_start_doubles_per_rtt(self):
        # Over a clean link, cwnd should grow roughly exponentially at
        # first; we check that the flow finishes much faster than it would
        # at the initial window rate.
        sender, top, sim, done = run_single_flow(500_000)
        assert done
        # At a fixed cwnd of 2 segments per RTT (2 * 1460B / 0.15s), the
        # flow would need ~25 s; slow start should finish well under 5 s.
        assert sender.stats.duration < 5.0

    def test_window_init_respected(self):
        sender, _, _, _ = run_single_flow(10_000, window_init=8.0)
        assert sender.window_init == 8.0

    def test_ssthresh_caps_slow_start(self):
        sender, _, _, _ = run_single_flow(
            3_000_000, initial_ssthresh=4.0, until=400.0
        )
        # With ssthresh=4 the sender leaves slow start at 4 segments and
        # grows linearly; cwnd should stay modest for a clean link run.
        assert sender.stats.completed


class TestLossRecovery:
    def _tiny_buffer_config(self):
        # A very shallow bottleneck buffer forces drops during slow start.
        return DumbbellConfig(
            n_senders=1,
            bottleneck_bandwidth_bps=2_000_000.0,
            rtt_s=0.1,
            buffer_bdp_multiple=0.5,
        )

    def test_losses_are_recovered(self):
        sender, top, _, done = run_single_flow(
            1_000_000, config=self._tiny_buffer_config(), until=300.0
        )
        assert done, "flow must complete despite drops"
        assert top.bottleneck_queue.stats.dropped_packets > 0
        assert sender.stats.retransmits > 0

    def test_fast_retransmit_beats_timeout(self):
        sender, _, _, _ = run_single_flow(
            1_000_000, config=self._tiny_buffer_config(), until=300.0
        )
        assert sender.stats.fast_retransmits > 0

    def test_sink_receives_exactly_flow_bytes(self):
        sim = Simulator()
        top = DumbbellTopology(sim, self._tiny_buffer_config())
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        sink = TcpSink(sim, top.receivers[0], spec)
        sender = TcpSender(sim, top.senders[0], spec, 500_000)
        sender.start()
        sim.run(until=300.0)
        assert sink.received.total_bytes == 500_000
        assert sink.received.contiguous_from(0) == 500_000

    def test_loss_event_halves_window(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = TcpSender(sim, top.senders[0], spec, 10_000_000)
        sender.cwnd = 64.0
        sender.ssthresh = 1000.0
        sender._on_loss_event()
        assert sender.ssthresh == pytest.approx(32.0)
        assert sender.cwnd == pytest.approx(32.0)

    def test_timeout_resets_to_one_segment(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = TcpSender(sim, top.senders[0], spec, 10_000_000)
        sender.cwnd = 64.0
        sender._on_timeout_event()
        assert sender.cwnd == 1.0


class TestAbort:
    def test_abort_reports_partial_goodput(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = TcpSender(sim, top.senders[0], spec, 100_000_000)
        sender.start()
        sim.run(until=2.0)
        sender.abort()
        assert not sender.stats.completed
        assert 0 < sender.stats.bytes_goodput < 100_000_000
        assert sender.finished

    def test_abort_idempotent(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = TcpSender(sim, top.senders[0], spec, 1_000_000)
        sender.start()
        sim.run(until=0.5)
        sender.abort()
        sender.abort()
        assert sender.finished


class TestRttEstimator:
    def test_first_sample_initializes(self):
        est = RttEstimator()
        est.observe(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.min_rtt == pytest.approx(0.1)

    def test_rto_above_srtt(self):
        est = RttEstimator()
        for _ in range(10):
            est.observe(0.1)
        assert est.rto >= 0.1
        assert est.rto >= MIN_RTO_S

    def test_backoff_doubles(self):
        est = RttEstimator()
        est.observe(0.5)
        before = est.rto
        est.backoff()
        assert est.rto == pytest.approx(min(MAX_RTO_S, before * 2))

    def test_min_rtt_tracks_minimum(self):
        est = RttEstimator()
        for rtt in (0.3, 0.1, 0.2):
            est.observe(rtt)
        assert est.min_rtt == pytest.approx(0.1)

    def test_nonpositive_samples_ignored(self):
        est = RttEstimator()
        est.observe(0.0)
        est.observe(-1.0)
        assert est.srtt is None

    @given(st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_rto_always_within_bounds(self, samples):
        est = RttEstimator()
        for rtt in samples:
            est.observe(rtt)
            assert MIN_RTO_S <= est.rto <= MAX_RTO_S

    @given(st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_min_rtt_is_global_minimum(self, samples):
        est = RttEstimator()
        for rtt in samples:
            est.observe(rtt)
        assert est.min_rtt == pytest.approx(min(samples))


class TestConnectionStats:
    def test_throughput_zero_without_duration(self):
        stats = ConnectionStats(flow_id=1)
        assert stats.throughput_bps == 0.0

    def test_mean_rtt_and_queueing_delay(self):
        stats = ConnectionStats(flow_id=1)
        stats.rtt_samples = [0.1, 0.2, 0.3]
        stats.min_rtt = 0.1
        assert stats.mean_rtt == pytest.approx(0.2)
        assert stats.mean_queueing_delay == pytest.approx(0.1)

    def test_loss_indicator(self):
        stats = ConnectionStats(flow_id=1)
        stats.packets_sent = 100
        stats.retransmits = 4
        assert stats.loss_indicator == pytest.approx(0.04)

    def test_loss_indicator_empty(self):
        assert ConnectionStats(flow_id=1).loss_indicator == 0.0
