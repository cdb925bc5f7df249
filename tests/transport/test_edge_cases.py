"""Edge-case tests across the transport layer."""

from repro.ipfix import IpfixCollector, sharing_ccdf
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport import CubicParams, CubicSender, TcpSender, TcpSink


def make_pair(flow_bytes=10_000, sender_cls=TcpSender, **kwargs):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    sink = TcpSink(sim, top.receivers[0], spec)
    sender = sender_cls(sim, top.senders[0], spec, flow_bytes, **kwargs)
    return sim, top, spec, sink, sender


class TestRtoEdgeCases:
    def test_rto_noop_after_finish(self):
        sim, top, spec, sink, sender = make_pair(2_000)
        sender.start()
        sim.run(until=30.0)
        assert sender.finished
        timeouts_before = sender.stats.timeouts
        sender._on_rto()  # stale timer firing after completion
        assert sender.stats.timeouts == timeouts_before

    def test_no_rto_pending_after_finish(self):
        sim, top, spec, sink, sender = make_pair(2_000)
        sender.start()
        sim.run()
        # The calendar must fully drain: no timer leak keeps events alive.
        assert sim.pending_events == 0

    def test_handle_foreign_packet_kinds_ignored(self):
        from repro.simnet.packet import make_data_packet

        sim, top, spec, sink, sender = make_pair(10_000)
        sender.start()
        # A stray DATA packet delivered to the sender must be ignored.
        sender.handle_packet(make_data_packet(1, "x", "y", 0, 100))
        assert sender.stats.packets_sent >= 1


class TestCubicFriendlyRegion:
    def test_tcp_friendly_window_grows_with_time(self):
        sim, top, spec, sink, sender = make_pair(
            10_000, sender_cls=CubicSender, params=CubicParams()
        )
        sender._origin_window = 10.0
        early = sender._tcp_friendly_window(elapsed=0.1, rtt=0.1)
        late = sender._tcp_friendly_window(elapsed=5.0, rtt=0.1)
        assert late > early

    def test_tcp_friendly_window_zero_rtt(self):
        sim, top, spec, sink, sender = make_pair(
            10_000, sender_cls=CubicSender, params=CubicParams()
        )
        assert sender._tcp_friendly_window(1.0, 0.0) == 0.0


class TestIpfixEdges:
    def test_ccdf_empty_collector(self):
        assert sharing_ccdf(IpfixCollector()) == []
