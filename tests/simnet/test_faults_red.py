"""Tests for fault injection (outages, random loss) and the RED queue."""

import numpy as np
import pytest

from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Outage,
    RandomLoss,
    RedQueue,
    Simulator,
    make_data_packet,
)
from repro.simnet.link import Link
from repro.transport import CubicSender, TcpSink


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, packet, link):
        self.packets.append((self.sim.now, packet))


def simple_link(sim, bw=8e6, delay=0.001):
    link = Link(sim, "L", bw, delay)
    dst = Collector(sim)
    link.attach(dst)
    return link, dst


class TestOutage:
    def test_packets_blackholed_during_window(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        outage = Outage(sim, 1.0, 2.0, links=[link])
        for t, seq in [(0.5, 0), (1.5, 1), (2.5, 2), (3.5, 3)]:
            sim.schedule_at(
                t, lambda s=seq: link.send(make_data_packet(1, "a", "b", s, 100))
            )
        sim.run()
        delivered = [p.seq for _t, p in dst.packets]
        assert delivered == [0, 3]
        assert outage.packets_blackholed == 2

    def test_validation(self):
        sim = Simulator()
        link, _ = simple_link(sim)
        with pytest.raises(ValueError):
            Outage(sim, 0.0, 0.0, links=[link])
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            Outage(sim, 0.5, 1.0, links=[link])

    def test_tcp_survives_outage(self):
        """A connection stalls through a short outage and then completes
        via RTO-driven recovery."""
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = CubicSender(sim, top.senders[0], spec, 2_000_000, done.append)
        Outage(sim, 0.5, 1.5, links=[top.bottleneck])
        sender.start()
        sim.run(until=120.0)
        assert done, "flow must finish after the outage clears"
        assert sender.stats.timeouts >= 1


class TestRandomLoss:
    def test_statistical_drop_rate(self):
        sim = Simulator()
        link, dst = simple_link(sim, bw=1e9)
        fault = RandomLoss(sim, link, 0.3, np.random.default_rng(0))
        for i in range(2000):
            link.send(make_data_packet(1, "a", "b", i, 100))
        sim.run()
        assert fault.observed_loss_rate == pytest.approx(0.3, abs=0.05)
        assert len(dst.packets) == fault.packets_passed

    def test_remove_restores_delivery(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        fault = RandomLoss(sim, link, 0.99, np.random.default_rng(0))
        fault.remove()
        for i in range(20):
            link.send(make_data_packet(1, "a", "b", i, 100))
        sim.run()
        assert len(dst.packets) == 20

    def test_validation(self):
        sim = Simulator()
        link, _ = simple_link(sim)
        with pytest.raises(ValueError):
            RandomLoss(sim, link, 1.0, np.random.default_rng(0))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestRedQueue:
    def _queue(self, ecn=False, **kwargs):
        defaults = dict(
            capacity_bytes=100_000,
            clock=FakeClock(),
            rng=np.random.default_rng(1),
            min_thresh_bytes=5_000,
            max_thresh_bytes=20_000,
            ecn=ecn,
        )
        defaults.update(kwargs)
        return RedQueue(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._queue(min_thresh_bytes=0)
        with pytest.raises(ValueError):
            self._queue(min_thresh_bytes=30_000)  # above max
        with pytest.raises(ValueError):
            self._queue(max_probability=0.0)
        with pytest.raises(ValueError):
            self._queue(weight=2.0)

    def test_no_early_drops_below_min_threshold(self):
        q = self._queue()
        for i in range(4):  # ~4 KB < min threshold
            assert q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.early_drops == 0

    def test_early_drops_appear_under_sustained_load(self):
        q = self._queue(weight=0.1)
        accepted = 0
        for i in range(200):
            if q.enqueue(make_data_packet(1, "a", "b", i, 960)):
                accepted += 1
        assert q.early_drops > 0
        # RED drops early: occupancy stays below the hard capacity.
        assert q.bytes_queued < 100_000

    def test_average_tracks_occupancy(self):
        q = self._queue(weight=0.5)
        for i in range(20):
            q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.avg_queue_bytes > 0
        assert q.avg_queue_bytes <= q.bytes_queued + 1000

    def test_ecn_marks_instead_of_dropping(self):
        # Keep the average inside (min_thresh, max_thresh): ECN marks
        # replace early drops there.  (Above max_thresh RED still drops,
        # ECN or not, per RFC 3168.)
        q = self._queue(ecn=True, weight=0.5, max_probability=0.8)
        marks = 0
        for i in range(19):
            q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.avg_queue_bytes < q.max_thresh
        assert q.ecn_marks > 0
        assert q.early_drops == 0

    def test_ecn_still_drops_above_max_threshold(self):
        q = self._queue(ecn=True, weight=1.0)
        for i in range(60):
            q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.early_drops > 0

    def test_forced_drop_above_max_threshold(self):
        q = self._queue(weight=1.0)  # average == instantaneous
        dropped = 0
        for i in range(100):
            if not q.enqueue(make_data_packet(1, "a", "b", i, 960)):
                dropped += 1
        assert dropped > 0
        # With avg at max_thresh, everything beyond is an early drop.
        assert q.bytes_queued <= 25_000
