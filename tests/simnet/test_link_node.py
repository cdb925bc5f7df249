"""Tests for links (serialization, propagation, utilization) and nodes."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.link import Link, bdp_bytes
from repro.simnet.node import Host, Router
from repro.simnet.packet import make_data_packet
from repro.simnet.queues import DropTailQueue


class Collector(Host):
    """Host that records every delivered packet with its arrival time."""

    def __init__(self, name, sim):
        super().__init__(name)
        self.sim = sim
        self.arrivals = []
        self.set_default_handler(self._collect)

    def _collect(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, bw=8_000_000.0, delay=0.01, capacity=None):
    queue = DropTailQueue(capacity, lambda: sim.now)
    return Link(sim, "L", bw, delay, queue)


class TestLinkTiming:
    def test_single_packet_delivery_time(self):
        sim = Simulator()
        link = make_link(sim, bw=8_000_000.0, delay=0.01)
        dst = Collector("dst", sim)
        link.attach(dst)
        p = make_data_packet(1, "a", "dst", 0, 960)  # 1000B -> 1ms at 8 Mbps
        link.send(p)
        sim.run()
        assert len(dst.arrivals) == 1
        t, _ = dst.arrivals[0]
        assert t == pytest.approx(0.001 + 0.01)

    def test_back_to_back_serialization(self):
        sim = Simulator()
        link = make_link(sim, bw=8_000_000.0, delay=0.0)
        dst = Collector("dst", sim)
        link.attach(dst)
        for i in range(3):
            link.send(make_data_packet(1, "a", "dst", i, 960))
        sim.run()
        times = [t for t, _ in dst.arrivals]
        assert times == pytest.approx([0.001, 0.002, 0.003])

    def test_no_reordering_through_link(self):
        sim = Simulator()
        link = make_link(sim)
        dst = Collector("dst", sim)
        link.attach(dst)
        for i in range(20):
            link.send(make_data_packet(1, "a", "dst", i, 500))
        sim.run()
        seqs = [p.seq for _, p in dst.arrivals]
        assert seqs == list(range(20))

    def test_queue_overflow_drops(self):
        sim = Simulator()
        link = make_link(sim, bw=8_000.0, delay=0.0, capacity=1100)  # slow link
        dst = Collector("dst", sim)
        link.attach(dst)
        for i in range(5):
            link.send(make_data_packet(1, "a", "dst", i, 960))
        sim.run()
        # One on the wire, one queued (1000 <= 1100); three dropped.
        assert len(dst.arrivals) == 2
        assert link.queue.stats.dropped_packets == 3

    def test_utilization_full_load(self):
        sim = Simulator()
        link = make_link(sim, bw=8_000_000.0, delay=0.0)
        dst = Collector("dst", sim)
        link.attach(dst)
        for i in range(10):
            link.send(make_data_packet(1, "a", "dst", i, 960))
        sim.run()
        assert sim.now == pytest.approx(0.010)
        assert link.utilization() == pytest.approx(1.0, abs=1e-6)

    def test_utilization_is_measured_from_creation(self):
        # A link that joins at t = 5 s and is busy 10 of its first 20 ms is
        # half utilized; measured from t = 0 it read 0.002.
        sim = Simulator()
        sim.run(until=5.0)
        link = make_link(sim, bw=1_200_000.0, delay=0.0)  # 1500 B take 10 ms
        link.attach(Collector("dst", sim))
        link.send(make_data_packet(1, "a", "dst", 0, 1460))
        sim.run(until=5.005)
        assert link.is_busy
        assert link.utilization() == pytest.approx(1.0)
        sim.run(until=5.020)
        assert link.utilization() == pytest.approx(0.5)

    def test_utilization_idle(self):
        sim = Simulator()
        link = make_link(sim)
        dst = Collector("dst", sim)
        link.attach(dst)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert link.utilization() == 0.0

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "bad", 0.0, 0.01)
        with pytest.raises(ValueError):
            Link(sim, "bad", 1e6, -1.0)

    @pytest.mark.parametrize(
        "bandwidth, delay",
        [
            (float("nan"), 0.01),
            (float("inf"), 0.01),
            (-1e6, 0.01),
            (1e6, float("nan")),
            (1e6, float("inf")),
        ],
    )
    def test_non_finite_parameters_rejected(self, bandwidth, delay):
        with pytest.raises(ValueError):
            Link(Simulator(), "bad", bandwidth, delay)

    def test_zero_delay_is_allowed(self):
        assert Link(Simulator(), "wire", 1e6, 0.0).delay_s == 0.0

    def test_unattached_link_raises_on_delivery(self):
        sim = Simulator()
        link = make_link(sim)
        link.send(make_data_packet(1, "a", "b", 0, 100))
        with pytest.raises(RuntimeError):
            sim.run()


class TestBdp:
    def test_paper_topology_bdp(self):
        # 15 Mbps x 150 ms = 281250 bytes.
        assert bdp_bytes(15e6, 0.150) == 281_250

    def test_buffer_is_five_bdp(self):
        from repro.simnet.topology import DumbbellConfig

        cfg = DumbbellConfig(bottleneck_bandwidth_bps=15e6, rtt_s=0.150)
        assert cfg.buffer_bytes == 5 * 281_250


class TestHost:
    def test_agent_dispatch_by_flow(self):
        sim = Simulator()
        host = Host("h")
        got = []

        class Agent:
            def handle_packet(self, packet):
                got.append(packet.flow_id)

        host.register_agent(7, Agent())
        link = make_link(sim)
        link.attach(host)
        link.send(make_data_packet(7, "a", "h", 0, 100))
        link.send(make_data_packet(8, "a", "h", 0, 100))  # unregistered: dropped
        sim.run()
        assert got == [7]

    def test_duplicate_registration_rejected(self):
        host = Host("h")

        class Agent:
            def handle_packet(self, packet):
                pass

        host.register_agent(1, Agent())
        with pytest.raises(ValueError):
            host.register_agent(1, Agent())

    def test_send_without_route_raises(self):
        host = Host("h")
        with pytest.raises(RuntimeError):
            host.send(make_data_packet(1, "h", "x", 0, 100))

    def test_explicit_route_overrides_uplink(self):
        sim = Simulator()
        host = Host("h")
        a = Collector("a", sim)
        b = Collector("b", sim)
        to_a = make_link(sim)
        to_a.attach(a)
        to_b = make_link(sim)
        to_b.attach(b)
        host.set_uplink(to_a)
        host.add_route("b", to_b)
        host.send(make_data_packet(1, "h", "b", 0, 100))
        host.send(make_data_packet(2, "h", "anything", 0, 100))
        sim.run()
        assert len(a.arrivals) == 1 and len(b.arrivals) == 1


class TestRouter:
    def test_forwarding_by_destination(self):
        sim = Simulator()
        router = Router("R")
        a = Collector("a", sim)
        b = Collector("b", sim)
        to_a = make_link(sim)
        to_a.attach(a)
        to_b = make_link(sim)
        to_b.attach(b)
        router.add_route("a", to_a)
        router.add_route("b", to_b)
        ingress = make_link(sim)
        ingress.attach(router)
        ingress.send(make_data_packet(1, "x", "b", 0, 100))
        ingress.send(make_data_packet(2, "x", "a", 0, 100))
        sim.run()
        assert [p.dst for _, p in a.arrivals] == ["a"]
        assert [p.dst for _, p in b.arrivals] == ["b"]
        assert router.packets_forwarded == 2

    def test_default_route(self):
        sim = Simulator()
        router = Router("R")
        sink = Collector("s", sim)
        out = make_link(sim)
        out.attach(sink)
        router.set_default_route(out)
        ingress = make_link(sim)
        ingress.attach(router)
        ingress.send(make_data_packet(1, "x", "unknown", 0, 100))
        sim.run()
        assert len(sink.arrivals) == 1

    def test_unroutable_counted(self):
        sim = Simulator()
        router = Router("R")
        ingress = make_link(sim)
        ingress.attach(router)
        ingress.send(make_data_packet(1, "x", "nowhere", 0, 100))
        sim.run()
        assert router.packets_unroutable == 1

    def test_hop_count_incremented(self):
        sim = Simulator()
        router = Router("R")
        sink = Collector("s", sim)
        out = make_link(sim)
        out.attach(sink)
        router.set_default_route(out)
        ingress = make_link(sim)
        ingress.attach(router)
        ingress.send(make_data_packet(1, "x", "s", 0, 100))
        sim.run()
        assert len(sink.arrivals) == 1
        assert ingress.packets_delivered == out.packets_delivered == 1
        assert router.packets_received == router.packets_forwarded == 1
