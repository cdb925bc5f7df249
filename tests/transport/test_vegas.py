"""Tests for the TCP Vegas baseline."""

import pytest

from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport import CubicParams, CubicSender, TcpSink, VegasSender


def run_vegas(flow_bytes=1_000_000, config=None, until=120.0, **kwargs):
    sim = Simulator()
    top = DumbbellTopology(sim, config or DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    TcpSink(sim, top.receivers[0], spec)
    done = []
    sender = VegasSender(sim, top.senders[0], spec, flow_bytes, done.append, **kwargs)
    sender.start()
    sim.run(until=until)
    return sender, top, done


class TestVegas:
    def test_flow_completes(self):
        sender, _, done = run_vegas()
        assert done and sender.stats.completed

    def test_timeout_restarts_from_one_segment(self):
        # No sink: nothing is ever acknowledged, so the retransmission
        # timer fires and Vegas halves ssthresh and restarts from one.
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        sender = VegasSender(sim, top.senders[0], spec, 100_000, lambda s: None)
        sender.start()
        sim.run(until=5.0)
        assert sender.stats.timeouts >= 1
        assert sender.cwnd == 1.0
        assert sender.ssthresh >= 2.0

    def test_keeps_queue_nearly_empty(self):
        """Vegas's whole point: a solo Vegas flow holds only alpha..beta
        packets at the bottleneck, so mean queueing delay stays tiny."""
        sender, top, done = run_vegas(flow_bytes=4_000_000, until=200.0)
        assert done
        # Mean queueing delay in segments: delay * bandwidth / mss.
        delay_s = sender.stats.mean_queueing_delay
        backlog_segments = (
            delay_s * top.config.bottleneck_bandwidth_bps / 8.0 / 1460.0
        )
        # Mean includes the slow-start ramp, so allow a little above beta;
        # the 5xBDP buffer holds ~960 segments, Vegas sits ~2 orders below.
        assert backlog_segments < 20.0

    def test_lower_delay_than_cubic(self):
        config = DumbbellConfig(n_senders=1)
        vegas, _, vdone = run_vegas(4_000_000, config=config, until=200.0)

        sim = Simulator()
        top = DumbbellTopology(sim, config)
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        cdone = []
        cubic = CubicSender(
            sim, top.senders[0], spec, 4_000_000, cdone.append,
            params=CubicParams.default(),
        )
        cubic.start()
        sim.run(until=200.0)

        assert vdone and cdone
        assert vegas.stats.mean_queueing_delay <= cubic.stats.mean_queueing_delay

    def test_backlog_estimator(self):
        sender, _, _ = run_vegas(50_000)
        sender.rtt.observe(0.15)
        sender.rtt.observe(0.30)
        backlog = sender._estimated_backlog()
        assert backlog is not None
        assert backlog > 0

    def test_without_a_usable_rtt_it_grows_as_reno(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        sender = VegasSender(sim, top.senders[0], spec, 50_000)
        sender.cwnd = 4.0
        sender._on_ack_congestion_avoidance(1.0)  # no RTT sample yet
        assert sender.cwnd == 4.25
        sender.rtt.observe(0.1)
        sender.rtt.min_rtt = 0.0  # a zero-delay path: no rate to compare
        assert sender._estimated_backlog() is None

    def test_decrease_when_backlog_high(self):
        sender, _, _ = run_vegas(50_000)
        # Deep standing queue: srtt far above min.
        sender.rtt.min_rtt = 0.1
        sender.rtt.srtt = 0.4
        sender.cwnd = 20.0
        sender.ssthresh = 1.0
        before = sender.cwnd
        sender._on_ack_congestion_avoidance(1.0)
        assert sender.cwnd < before

    def test_loss_reaction_is_gentler_than_reno(self):
        sender, _, _ = run_vegas(50_000)
        sender.cwnd = 40.0
        sender._on_loss_event()
        assert sender.cwnd == pytest.approx(30.0)  # 0.75 factor
