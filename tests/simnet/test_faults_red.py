"""Tests for link outages and random loss (through the test-local
:class:`~tests.simnet.linkdrop.LinkDrop`), and for the RED queue."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Outage,
    RedQueue,
    Simulator,
    make_data_packet,
)
from repro.simnet.link import Link
from repro.transport import CubicSender, TcpSink

from tests.simnet.linkdrop import LinkDrop


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
        drop = LinkDrop(link)
        Outage(sim, 1.0, 2.0, targets=[drop])
        for t, seq in [(0.5, 0), (1.5, 1), (2.5, 2), (3.5, 3)]:
            sim.schedule_at(
                t, lambda s=seq: link.send(make_data_packet(1, "a", "b", s, 100))
            )
        sim.run()
        delivered = [p.seq for _t, p in dst.packets]
        assert delivered == [0, 3]
        assert drop.dropped == 2

    def test_validation(self):
        sim = Simulator()
        drop = LinkDrop(simple_link(sim)[0])
        with pytest.raises(ValueError):
            Outage(sim, 0.0, 0.0, targets=[drop])
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            Outage(sim, 0.5, 1.0, targets=[drop])  # starts in the past
        assert drop.down == 0

    def test_tcp_survives_outage(self):
        """A connection stalls through a short outage and then completes
        via RTO-driven recovery."""
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = CubicSender(sim, top.senders[0], spec, 2_000_000, done.append)
        Outage(sim, 0.5, 1.5, targets=[LinkDrop(top.bottleneck)])
        sender.start()
        sim.run(until=120.0)
        assert done, "flow must finish after the outage clears"
        assert sender.stats.timeouts >= 1


class TestRandomLoss:
    def test_statistical_drop_rate(self):
        # The robustness tests read their loss rate off this injector.
        sim = Simulator()
        link, dst = simple_link(sim, bw=1e9)
        drop = LinkDrop(link, 0.3, np.random.default_rng(0))
        for i in range(2000):
            link.send(make_data_packet(1, "a", "b", i, 100))
        sim.run()
        assert drop.dropped / 2000 == pytest.approx(0.3, abs=0.05)
        assert len(dst.packets) == 2000 - drop.dropped


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestRedQueue:
    def _queue(self, **kwargs):
        defaults = dict(
            capacity_bytes=100_000,
            clock=FakeClock(),
            rng=np.random.default_rng(1),
            min_thresh_bytes=5_000,
            max_thresh_bytes=20_000,
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
        for bad in (
            dict(max_thresh_bytes=float("inf")),  # the average never gets there
            dict(max_thresh_bytes=float("nan")),
            dict(min_thresh_bytes=float("nan")),
        ):
            with pytest.raises(ValueError):
                self._queue(**bad)

    def test_no_early_drops_below_min_threshold(self):
        q = self._queue()
        for i in range(4):  # ~4 KB < min threshold
            assert q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.early_drops == 0

    def test_early_drops_appear_under_sustained_load(self):
        q = self._queue(capacity_bytes=1_000_000)
        for i in range(600):
            q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.early_drops > 0
        # RED drops early: occupancy stays below the hard capacity.
        assert q.stats.dropped_packets == q.early_drops
        assert q.bytes_queued < 1_000_000

    def test_average_tracks_occupancy(self):
        q = self._queue()
        for i in range(20):
            q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.avg_queue_bytes > 0
        assert q.avg_queue_bytes <= q.bytes_queued + 1000

    def test_average_and_early_probability_follow_floyd_jacobson(self):
        # No simulation: a hand-built enqueue/dequeue sequence, an rng that
        # never fires an early drop, and the 1993 paper's two formulas.
        # avg <- (1 - w) avg + w q on every arrival, with q the bytes queued
        # before it and w = 0.002; p_b = max_p (avg - min_th) / (max_th - min_th).
        min_th, max_th, max_p, w = 5_000, 50_000, 0.1, 0.002
        q = self._queue(
            capacity_bytes=10_000_000,
            rng=SimpleNamespace(random=lambda: 1.0),
            min_thresh_bytes=min_th,
            max_thresh_bytes=max_th,
            max_probability=max_p,
        )
        avg = 0.0
        for i in range(300):
            avg = (1 - w) * avg + w * q.bytes_queued
            assert q.enqueue(make_data_packet(1, "a", "b", i, 960))
            if i % 2:
                q.dequeue()
        assert q.avg_queue_bytes == pytest.approx(avg, rel=1e-12)
        assert min_th < q.avg_queue_bytes < max_th
        expected = max_p * (q.avg_queue_bytes - min_th) / (max_th - min_th)
        assert q._early_probability() == pytest.approx(expected, rel=1e-12)
        assert q.early_drops == 0

    def test_forced_drop_above_max_threshold(self):
        q = self._queue(capacity_bytes=1_000_000)
        seq = 0
        while q.avg_queue_bytes < q.max_thresh:
            q.enqueue(make_data_packet(1, "a", "b", seq, 960))
            seq += 1
        # With the average at max_thresh, every arrival is an early drop.
        queued, drops = q.bytes_queued, q.early_drops
        for i in range(seq, seq + 50):
            assert not q.enqueue(make_data_packet(1, "a", "b", i, 960))
        assert q.bytes_queued == queued and q.early_drops == drops + 50
