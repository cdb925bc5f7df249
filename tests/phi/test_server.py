"""Tests for the context server (practical) and the ideal oracle."""

import math

import pytest

from repro.phi.context import CongestionLevel
from repro.phi.replication import ReplicatedContextService
from repro.phi.server import EWMA_ALPHA, ConnectionReport, ContextServer, IdealContextOracle
from repro.simnet import (
    ActiveFlowTracker,
    DumbbellConfig,
    DumbbellTopology,
    LinkMonitor,
    Simulator,
    make_data_packet,
)
from repro.transport.base import ConnectionStats


def make_report(reported_at, bytes_transferred=1_000_000, duration=1.0,
                mean_rtt=0.16, min_rtt=0.15, loss=0.0, flow_id=1):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=reported_at,
        bytes_transferred=bytes_transferred,
        duration_s=duration,
        mean_rtt_s=mean_rtt,
        min_rtt_s=min_rtt,
        loss_indicator=loss,
    )


class TestContextServerProtocol:
    def _server(self, capacity=15e6, **kwargs):
        sim = Simulator()
        return sim, ContextServer(sim, capacity, **kwargs)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ContextServer(sim, 0)
        with pytest.raises(ValueError):
            ContextServer(sim, 1e6, window_s=0)

    @pytest.mark.parametrize("service", [ContextServer, ReplicatedContextService])
    @pytest.mark.parametrize(
        "capacity, window_s", [(math.nan, 10.0), (15e6, math.nan)], ids=["capacity", "window"]
    )
    def test_nan_capacity_or_window_rejected(self, service, capacity, window_s):
        # A NaN window never ages a report out; a NaN capacity makes every
        # utilization estimate NaN.
        with pytest.raises(ValueError):
            service(Simulator(), capacity, window_s=window_s)

    def test_lookup_registers_active_connection(self):
        sim, server = self._server()
        server.lookup()
        server.lookup()
        assert server.current_context().competing_senders == 2

    def test_report_deregisters(self):
        sim, server = self._server()
        server.lookup()
        server.report(make_report(0.0))
        assert server.current_context().competing_senders == 0

    def test_idle_server_reports_idle_context(self):
        sim, server = self._server()
        ctx = server.current_context()
        assert ctx.utilization == 0.0
        assert ctx.level() is CongestionLevel.LOW

    def test_utilization_estimate_from_reports(self):
        sim, server = self._server(capacity=8e6, window_s=10.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        # 5 MB in the last 5 seconds over an 8 Mbps capacity and a 10 s
        # window: 40 Mbit / 80 Mbit = 0.5.
        server.report(make_report(10.0, bytes_transferred=5_000_000, duration=5.0))
        assert server.estimated_utilization() == pytest.approx(0.5, rel=0.05)

    def test_long_connection_only_counts_window_overlap(self):
        sim, server = self._server(capacity=8e6, window_s=10.0)
        sim.schedule(100.0, lambda: None)
        sim.run()
        # 100 s connection at ~1 Mbps: only the last 10 s overlap.
        server.report(
            make_report(100.0, bytes_transferred=12_500_000, duration=100.0)
        )
        assert server.estimated_utilization() == pytest.approx(0.125, rel=0.05)

    def test_reports_age_out(self):
        sim, server = self._server(window_s=5.0)
        server.report(make_report(0.0, bytes_transferred=10_000_000))
        sim.schedule(20.0, lambda: None)
        sim.run()
        assert server.estimated_utilization() == 0.0

    def test_queue_delay_ewma(self):
        sim, server = self._server()
        server.report(make_report(0.0, mean_rtt=0.25, min_rtt=0.15))
        assert server.current_context().queue_delay_s == pytest.approx(0.1)  # seeds it
        server.report(make_report(0.0, mean_rtt=0.15, min_rtt=0.15))
        assert server.current_context().queue_delay_s == pytest.approx((1 - EWMA_ALPHA) * 0.1)

    def test_utilization_capped_at_one(self):
        sim, server = self._server(capacity=1e3)
        sim.schedule(1.0, lambda: None)
        sim.run()
        server.report(make_report(1.0, bytes_transferred=10_000_000, duration=1.0))
        assert server.estimated_utilization() == 1.0

    def test_report_from_stats(self):
        sim, server = self._server()
        stats = ConnectionStats(flow_id=9)
        stats.start_time = 0.0
        stats.end_time = 2.0
        stats.bytes_goodput = 1000
        stats.rtt_samples = [0.15, 0.17]
        stats.min_rtt = 0.15
        stats.packets_sent = 10
        server.report(ConnectionReport.from_stats(stats, sim.now))
        # The first report seeds the queue-delay estimate: mean minus min RTT.
        assert server.current_context().queue_delay_s == pytest.approx(0.01)


class TestLateReports:
    def test_backlog_report_releases_its_lease_and_teaches_nothing(self):
        # A backlog flushed after a long outage: four reports stamped 5 s,
        # with 0.5 s of queueing, delivered at 20 s beside four fresh
        # reports with 1 ms.  The window (10 s) passed the backlog before
        # it arrived, so the server must read as if it never got it.
        fresh = [make_report(20.0, mean_rtt=0.151, min_rtt=0.15, flow_id=i)
                 for i in range(4)]
        backlog = [make_report(5.0, mean_rtt=0.65, min_rtt=0.15, flow_id=10 + i)
                   for i in range(4)]
        sim = Simulator()
        late = ContextServer(sim, 15e6, robust=True)
        clean = ContextServer(sim, 15e6, robust=True)

        def deliver():
            for server in (late, clean):
                for _ in fresh:
                    server.lookup()
            for _ in backlog:
                late.lookup()
            for old, new in zip(backlog, fresh):
                late.report(old)
                late.report(new)
                clean.report(new)

        sim.schedule_at(20.0, deliver)
        sim.run()
        assert late.current_context() == clean.current_context()
        assert late.current_context().competing_senders == 0
        assert late.current_context().queue_delay_s == pytest.approx(0.001)
        sim.schedule_at(29.0, lambda: None)
        sim.run()
        assert late.current_context() == clean.current_context()


class TestLeases:
    """Regression tests for the lookup-without-report leak: a sender that
    crashes (or whose report is lost) must not inflate ``n`` forever."""

    def _server(self, **kwargs):
        sim = Simulator()
        return sim, ContextServer(sim, 15e6, **kwargs)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ContextServer(sim, 15e6, lease_ttl_s=0)

    def test_orphaned_lookup_expires(self):
        sim, server = self._server(lease_ttl_s=5.0)
        server.lookup()  # never reports back
        assert server.current_context().competing_senders == 1
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert server.current_context().competing_senders == 0

    def test_leak_is_bounded_under_sustained_orphans(self):
        sim, server = self._server(lease_ttl_s=5.0)
        # One orphaned lookup per second for a minute: without expiry n
        # would reach 60; with leases it stays at the TTL's worth.
        for t in range(60):
            sim.schedule_at(float(t), server.lookup)
        sim.run()
        assert server.current_context().competing_senders <= 6

    def test_report_after_expiry_does_not_go_negative(self):
        sim, server = self._server(lease_ttl_s=5.0)
        server.lookup()
        sim.schedule(10.0, lambda: None)
        sim.run()
        server.report(make_report(10.0))
        assert server.current_context().competing_senders == 0
        server.lookup()
        assert server.current_context().competing_senders == 1

    def test_live_connections_keep_their_lease(self):
        sim, server = self._server(lease_ttl_s=5.0)
        sim.schedule_at(0.0, server.lookup)   # orphan
        sim.schedule_at(4.0, server.lookup)   # young connection
        sim.schedule_at(7.0, lambda: None)
        sim.run()
        # At t=7 the t=0 lease has expired; the t=4 one is still live.
        assert server.current_context().competing_senders == 1


class TestConnectionReport:
    def test_queue_delay(self):
        report = make_report(0.0, mean_rtt=0.2, min_rtt=0.15)
        assert report.queue_delay_s == pytest.approx(0.05)

    def test_queue_delay_without_rtt(self):
        report = make_report(0.0, mean_rtt=0.0, min_rtt=0.0)
        assert report.queue_delay_s == 0.0

    def test_from_stats(self):
        stats = ConnectionStats(flow_id=3)
        stats.start_time = 1.0
        stats.end_time = 3.0
        stats.bytes_goodput = 500
        stats.packets_sent = 100
        stats.retransmits = 2
        stats.rtt_samples = [0.1]
        stats.min_rtt = 0.1
        report = ConnectionReport.from_stats(stats, reported_at=3.0)
        assert report.duration_s == pytest.approx(2.0)
        assert report.loss_indicator == pytest.approx(0.02)
        assert report.flow_id == 3


class TestIdealOracle:
    def _oracle(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        monitor = LinkMonitor(sim, top.bottleneck, period_s=0.05)
        monitor.start()
        tracker = ActiveFlowTracker()
        return sim, top, monitor, tracker, IdealContextOracle(sim, monitor, tracker)

    def test_idle_network(self):
        sim, top, monitor, tracker, oracle = self._oracle()
        sim.run(until=1.0)
        ctx = oracle.lookup()
        assert ctx.utilization == 0.0
        assert ctx.competing_senders == 0.0

    def test_sees_live_utilization(self):
        sim, top, monitor, tracker, oracle = self._oracle()
        top.receivers[0].set_default_handler(lambda p: None)
        for i in range(400):
            top.senders[0].send(
                make_data_packet(1, top.senders[0].name, top.receivers[0].name, i, 1400)
            )
        # 400 x 1440 B at 15 Mbps keeps the link busy for ~0.3 s; query the
        # oracle while the burst is still flowing.
        sim.run(until=0.25)
        ctx = oracle.current_context()
        assert ctx.utilization > 0.5

    def test_counts_active_flows(self):
        sim, top, monitor, tracker, oracle = self._oracle()
        tracker.flow_started()
        tracker.flow_started()
        assert oracle.current_context().competing_senders == 2.0

    def test_utilization_provider_is_live(self):
        sim, top, monitor, tracker, oracle = self._oracle()
        provider = oracle.utilization_provider()
        assert provider() == 0.0

    def test_report_is_noop(self):
        sim, top, monitor, tracker, oracle = self._oracle()
        oracle.report(make_report(0.0))
        oracle.report(ConnectionReport.from_stats(ConnectionStats(flow_id=1), sim.now))


class TestRobustAggregation:
    def _server(self, sim=None):
        sim = sim or Simulator()
        return sim, ContextServer(sim, 15e6, robust=True)

    def test_default_server_is_trusting(self):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        assert not server.robust
        import math as _math

        server.report(make_report(0.0, mean_rtt=_math.nan))
        assert server.reports_rejected == 0  # swallowed, old behaviour

    def test_malformed_reports_rejected_by_reason(self):
        import math as _math

        from repro import telemetry

        sim, server = self._server()
        with telemetry.use() as tele:
            server.report(make_report(0.0, mean_rtt=_math.nan))
            server.report(make_report(0.0, bytes_transferred=-1))
            server.report(make_report(0.0, duration=-1.0))
            server.report(make_report(0.0, loss=2.0))
            server.report(make_report(0.0, min_rtt=-0.1))
            server.report(make_report(0.0))  # honest
            counters = tele.registry.snapshot()["counters"]
        assert server.reports_rejected == 5
        assert {
            name: value for name, value in counters.items()
            if name.startswith("phi.report_rejections")
        } == {
            "phi.report_rejections{reason=non_finite}": 1.0,
            "phi.report_rejections{reason=negative_bytes}": 1.0,
            "phi.report_rejections{reason=negative_duration}": 1.0,
            "phi.report_rejections{reason=loss_out_of_range}": 1.0,
            "phi.report_rejections{reason=negative_rtt}": 1.0,
        }
        assert len(server._reports) == 1

    def test_reports_that_moved_no_bytes_are_not_capped(self):
        sim, server = self._server()
        sim.run(until=1.0)
        for flow_id in range(4):  # enough to aggregate robustly
            server.report(make_report(1.0, bytes_transferred=0, flow_id=flow_id))
        assert server.current_context().utilization == 0.0
        assert server._bound_influence([0.0] * 4) == [0.0] * 4

    def test_rejected_report_does_not_release_lease(self):
        import math as _math

        sim, server = self._server()
        server.lookup()
        server.report(make_report(0.0, mean_rtt=_math.nan))
        assert server.current_context().competing_senders == 1
        server.report(make_report(0.0))
        assert server.current_context().competing_senders == 0

    def test_trimmed_mean_discards_outlier_queue_delay(self):
        sim, server = self._server()
        for i in range(9):
            server.report(make_report(0.0, mean_rtt=0.16, flow_id=i))
        # One liar claims 10 s of queueing.
        server.report(make_report(0.0, mean_rtt=10.15, flow_id=99))
        q = server.current_context().queue_delay_s
        assert q == pytest.approx(0.01, abs=1e-6)

    def test_ewma_fallback_below_min_reports(self):
        sim, server = self._server()
        server.report(make_report(0.0, mean_rtt=0.25))
        # Only 1 report in window: the EWMA (seeded by it) answers.
        assert server.current_context().queue_delay_s == pytest.approx(0.10)

    def test_influence_cap_bounds_utilization_lie(self):
        def loaded(server, sim):
            sim.schedule(5.0, lambda: None)
            sim.run()
            for i in range(8):
                server.report(
                    make_report(5.0, bytes_transferred=100_000, flow_id=i)
                )
            server.report(make_report(5.0, bytes_transferred=10**12, flow_id=99))

        sim = Simulator()
        trusting = ContextServer(sim, 15e6)
        loaded(trusting, sim)
        sim2, robust = self._server()
        loaded(robust, sim2)
        assert trusting.estimated_utilization() == 1.0  # saturated by the lie
        # Honest traffic alone is ~0.085; the capped liar may nudge the
        # estimate (one extra 4x-median contribution) but not seize it.
        assert robust.estimated_utilization() < 0.15

    def test_telemetry_rejection_counter(self):
        import math as _math

        from repro import telemetry

        sim, server = self._server()
        with telemetry.use() as tele:
            server.report(make_report(0.0, mean_rtt=_math.nan))
            counters = tele.registry.snapshot()["counters"]
        assert counters["phi.report_rejections{reason=non_finite}"] == 1.0

    def test_report_invalid_reason_accepts_honest(self):
        from repro.phi.server import report_invalid_reason

        assert report_invalid_reason(make_report(0.0)) is None
