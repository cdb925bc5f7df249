"""Tests for the composable fault layer: stacking, ordering, teardown."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flightrec
from repro.simcheck import fault_absorbed_packets
from repro.simnet import (
    DelaySpike,
    Outage,
    RandomLoss,
    Simulator,
    make_data_packet,
)
from repro.simnet.link import Link


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, packet, link):
        self.packets.append((self.sim.now, packet))


class DownMarks:
    """A control-plane outage target that counts its open down-marks."""

    def __init__(self):
        self.down = 0

    def mark_down(self):
        self.down += 1

    def mark_up(self):
        self.down -= 1


def simple_link(sim, bw=8e6, delay=0.001):
    link = Link(sim, "L", bw, delay)
    dst = Collector(sim)
    link.attach(dst)
    return link, dst


def send_at(sim, link, t, seq):
    sim.schedule_at(t, lambda: link.send(make_data_packet(1, "a", "b", seq, 100)))


class TestOverlappingFaults:
    def test_outage_plus_random_loss(self):
        """During the outage nothing is delivered (loss applies first in
        install order, the outage eats the rest); loss keeps acting after
        the outage ends (the old capture-the-hook scheme restored the
        pristine deliver here, silently disabling the loss fault)."""
        sim = Simulator()
        link, dst = simple_link(sim)
        loss = RandomLoss(sim, link, 0.5, np.random.default_rng(0))
        outage = Outage(sim, 1.0, 1.0, links=[link])
        mid: dict = {}
        sim.schedule_at(2.5, lambda: mid.update(dropped=loss.packets_dropped))
        for i in range(10):
            send_at(sim, link, 1.2 + i * 0.01, i)      # inside the outage
        for i in range(10, 210):
            send_at(sim, link, 3.0 + i * 0.01, i)      # after recovery
        sim.run()
        # All 10 outage-window packets met the loss fault; whatever it
        # passed, the outage blackholed — nothing from the window arrives.
        assert outage.packets_blackholed_on(link) == 10 - mid["dropped"]
        assert all(p.seq >= 10 for _t, p in dst.packets)
        # After recovery the loss fault is still in the path: of the 200
        # later packets, what it did not drop arrives.
        dropped_after = loss.packets_dropped - mid["dropped"]
        assert 0 < dropped_after < 200
        assert len(dst.packets) == 200 - dropped_after

    def test_loss_removed_while_outage_pending_keeps_outage(self):
        """Removing the first-installed fault must not unhook a fault
        installed after it (the non-LIFO teardown bug)."""
        sim = Simulator()
        link, dst = simple_link(sim)
        loss = RandomLoss(sim, link, 0.0, np.random.default_rng(0))
        outage = Outage(sim, 1.0, 1.0, links=[link])
        sim.schedule_at(1.1, loss.remove)
        send_at(sim, link, 1.5, 0)   # outage must still blackhole this
        send_at(sim, link, 2.5, 1)   # delivered after the outage
        sim.run()
        assert outage.packets_blackholed_on(link) == 1
        assert [p.seq for _t, p in dst.packets] == [1]

    def test_non_lifo_removal_restores_exact_delivery(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        pristine = link._deliver
        # Each drops 99% of what it sees: five deliveries prove none is in the path.
        a = RandomLoss(sim, link, 0.99, np.random.default_rng(0))
        b = RandomLoss(sim, link, 0.99, np.random.default_rng(1))
        c = RandomLoss(sim, link, 0.99, np.random.default_rng(2))
        a.remove()  # first-installed first: non-LIFO
        c.remove()
        b.remove()
        assert link._deliver == pristine
        for i in range(5):
            link.send(make_data_packet(1, "a", "b", i, 100))
        sim.run()
        assert len(dst.packets) == 5
        # None of the removed faults saw the post-teardown traffic.
        assert a.packets_dropped == b.packets_dropped == c.packets_dropped == 0

    def test_remove_is_idempotent(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        pristine = link._deliver
        a = RandomLoss(sim, link, 0.0, np.random.default_rng(0))
        b = RandomLoss(sim, link, 0.0, np.random.default_rng(1))
        a.remove()
        a.remove()
        b.remove()
        assert link._deliver == pristine

    def test_middle_fault_still_counts_after_outer_removal(self):
        """With three stacked loss faults, removing the outer two leaves
        the middle one exactly in the path."""
        sim = Simulator()
        link, dst = simple_link(sim)
        a = RandomLoss(sim, link, 0.99, np.random.default_rng(0))
        b = RandomLoss(sim, link, 0.99, np.random.default_rng(1))
        c = RandomLoss(sim, link, 0.99, np.random.default_rng(2))
        a.remove()
        c.remove()
        for i in range(7):
            link.send(make_data_packet(1, "a", "b", i, 100))
        sim.run()
        assert a.packets_dropped == 0 and c.packets_dropped == 0
        assert b.packets_dropped + len(dst.packets) == 7 and b.packets_dropped > 0


class TestBackToBackOutages:
    def test_sequential_outages_and_full_recovery(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        pristine = link._deliver
        first = Outage(sim, 1.0, 1.0, links=[link])
        second = Outage(sim, 2.0, 1.0, links=[link])
        send_at(sim, link, 0.5, 0)
        send_at(sim, link, 1.5, 1)
        send_at(sim, link, 2.5, 2)
        send_at(sim, link, 3.5, 3)
        sim.run()
        assert first.packets_blackholed_on(link) == 1
        assert second.packets_blackholed_on(link) == 1
        assert [p.seq for _t, p in dst.packets] == [0, 3]
        assert link._deliver == pristine

    def test_overlapping_outages(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        pristine = link._deliver
        first = Outage(sim, 1.0, 2.0, links=[link])
        second = Outage(sim, 2.0, 2.0, links=[link])
        send_at(sim, link, 2.5, 0)   # both active: first (older) counts it
        send_at(sim, link, 3.5, 1)   # only the second remains
        send_at(sim, link, 4.5, 2)   # both ended
        sim.run()
        assert first.packets_blackholed_on(link) == 1
        assert second.packets_blackholed_on(link) == 1
        assert [p.seq for _t, p in dst.packets] == [2]
        assert link._deliver == pristine


class TestFlap:
    """A bouncing link is consecutive outage windows."""

    def test_down_windows_blackhole_up_windows_deliver(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        pristine = link._deliver
        # Windows: down [1.0,1.5), up [1.5,2.0), down [2.0,2.5), up after.
        flap = [Outage(sim, start, 0.5, links=[link]) for start in (1.0, 2.0)]
        send_at(sim, link, 1.2, 0)
        send_at(sim, link, 1.7, 1)
        send_at(sim, link, 2.2, 2)
        send_at(sim, link, 2.7, 3)
        sim.run()
        assert [outage.packets_blackholed_on(link) for outage in flap] == [1, 1]
        assert [p.seq for _t, p in dst.packets] == [1, 3]
        assert link._deliver == pristine

    def test_end_time_and_validation(self):
        sim = Simulator()
        link, _ = simple_link(sim)
        flap = [Outage(sim, 1.0 + 0.75 * k, 0.5, links=[link]) for k in range(4)]
        assert flap[-1].end_s == pytest.approx(3.75)
        with pytest.raises(ValueError):
            Outage(sim, 1.0, 0.0, links=[link])
        with pytest.raises(ValueError):
            Outage(sim, 1.0, 0.5)  # cuts nothing


class TestDelaySpike:
    def test_delays_only_inside_window(self):
        sim = Simulator()
        link, dst = simple_link(sim, bw=8e8, delay=0.001)
        DelaySpike(sim, link, start_s=1.0, duration_s=1.0, extra_delay_s=0.2)
        send_at(sim, link, 0.5, 0)
        send_at(sim, link, 1.5, 1)
        send_at(sim, link, 2.5, 2)
        sim.run()
        times = {p.seq: t for t, p in dst.packets}
        ser = 100 * 8.0 / 8e8
        assert times[0] == pytest.approx(0.5 + ser + 0.001, abs=1e-6)
        assert times[1] == pytest.approx(1.5 + ser + 0.001 + 0.2, abs=1e-6)
        assert times[2] == pytest.approx(2.5 + ser + 0.001, abs=1e-6)

    def test_delayed_packet_meets_later_outage(self):
        """A packet parked by the spike resumes into an outage that began
        meanwhile and is lost, like the real world would lose it."""
        sim = Simulator()
        link, dst = simple_link(sim, bw=8e8, delay=0.001)
        DelaySpike(sim, link, start_s=1.0, duration_s=0.5, extra_delay_s=0.5)
        outage = Outage(sim, 1.3, 1.0, links=[link])
        send_at(sim, link, 1.1, 0)  # resumes ~1.6, inside the outage
        sim.run()
        assert outage.packets_blackholed_on(link) == 1
        assert dst.packets == []

    def test_validation(self):
        sim = Simulator()
        link, _ = simple_link(sim)
        with pytest.raises(ValueError):
            DelaySpike(sim, link, start_s=0.5, duration_s=0.0, extra_delay_s=0.1)
        with pytest.raises(ValueError):
            DelaySpike(sim, link, start_s=0.5, duration_s=1.0, extra_delay_s=0.0)


#: One fault window on a 0.1 s grid: (kind, start tick, length in ticks,
#: parameter).  Ticks from 0 include windows that start at construction.
WINDOWS = st.tuples(
    st.sampled_from(("outage", "spike", "loss", "channel", "both")),
    st.integers(0, 25),
    st.integers(1, 10),
    st.integers(1, 5),
)


class TestCompositionProperty:
    """Any overlap of windows on one link and a control channel heals
    completely once the calendar drains, with every lost packet
    accounted to exactly one fault."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(program=st.lists(WINDOWS, min_size=1, max_size=6))
    def test_overlapping_windows_heal_and_account(self, program):
        sim = Simulator()
        link, dst = simple_link(sim)
        pristine = link._deliver
        channel = DownMarks()
        faults, channel_windows = [], []

        def add_loss(end_s, p, seed):
            loss = RandomLoss(sim, link, p, np.random.default_rng(seed))
            faults.append(loss)
            sim.schedule_at(end_s, loss.remove)

        with flightrec.use() as rec:
            for seed, (kind, start, length, param) in enumerate(program):
                start_s, duration_s = start / 10, length / 10
                if kind == "outage":
                    faults.append(Outage(sim, start_s, duration_s, links=[link]))
                elif kind == "spike":
                    faults.append(DelaySpike(sim, link, start_s, duration_s, param / 20))
                elif kind == "loss":
                    sim.schedule_at(
                        start_s, add_loss, start_s + duration_s, param / 10, seed
                    )
                else:
                    links = [link] if kind == "both" else []
                    faults.append(
                        Outage(sim, start_s, duration_s, links=links, targets=[channel])
                    )
                    channel_windows.append((start_s, start_s + duration_s))
            for i in range(300):
                send_at(sim, link, 0.01 * i, i)
            # Off the 0.1 s grid, so no probe ties a window edge.
            probes = [(k + 0.5) / 10 for k in range(40)]
            seen = []
            for t in probes:
                sim.schedule_at(t, lambda: seen.append(channel.down == 0))
            sim.run()

        assert link._deliver == pristine and "_fault_chain" not in link.__dict__
        absorbed = fault_absorbed_packets(link, faults)
        assert link.packets_transmitted - link.packets_delivered == absorbed
        absorbs = [
            r["packet_id"] for r in rec.records()
            if r["layer"] == "fault" and r["kind"] == "fault_absorb"
        ]
        assert len(absorbs) == absorbed
        assert set(Counter(absorbs).values()) <= {1}
        delivered = {packet.packet_id for _t, packet in dst.packets}
        assert delivered.isdisjoint(absorbs)
        assert channel.down == 0
        assert seen == [
            not any(start <= t < end for start, end in channel_windows)
            for t in probes
        ]
