"""Tests for composing outage windows: stacking, ordering, recovery.

A cut link here is the test-local :class:`~tests.simnet.linkdrop.LinkDrop`
held down by :class:`~repro.simnet.Outage` windows, so what these pin is
the window itself: overlapping windows nest, any end order heals, and a
link's random loss keeps acting outside every window.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flightrec
from repro.simnet import Outage, Simulator, make_data_packet
from repro.simnet.link import Link

from tests.simnet.linkdrop import LinkDrop


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


def probe_down(sim, drop, times):
    """``{t: drop.down}`` read at each of ``times``."""
    seen = {}
    for t in times:
        sim.schedule_at(t, lambda t=t: seen.update({t: drop.down}))
    return seen


class TestOverlappingFaults:
    def test_outage_plus_random_loss(self):
        """During the outage nothing is delivered; the random loss keeps
        acting after the outage ends."""
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link, 0.5, np.random.default_rng(0))
        Outage(sim, 1.0, 1.0, targets=[drop])
        mid: dict = {}
        sim.schedule_at(2.5, lambda: mid.update(dropped=drop.dropped))
        for i in range(10):
            send_at(sim, link, 1.2 + i * 0.01, i)      # inside the outage
        for i in range(10, 210):
            send_at(sim, link, 3.0 + i * 0.01, i)      # after recovery
        sim.run()
        assert mid["dropped"] == 10
        assert all(p.seq >= 10 for _t, p in dst.packets)
        # After recovery the loss is still in the path: of the 200 later
        # packets, what it did not drop arrives.
        dropped_after = drop.dropped - mid["dropped"]
        assert 0 < dropped_after < 200
        assert len(dst.packets) == 200 - dropped_after
        assert drop.down == 0

    def test_non_lifo_removal_restores_exact_delivery(self):
        """Three windows end in the order they began, not the reverse;
        the link is down until the last ends, then delivers everything."""
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        Outage(sim, 1.0, 1.0, targets=[drop])  # ends 2.0
        Outage(sim, 1.1, 2.0, targets=[drop])  # ends 3.1
        Outage(sim, 1.2, 1.5, targets=[drop])  # ends 2.7
        seen = probe_down(sim, drop, (1.5, 2.5, 3.0, 3.5))
        send_at(sim, link, 2.9, 0)  # only the middle window still holds
        for i in range(1, 6):
            send_at(sim, link, 4.0 + i * 0.01, i)
        sim.run()
        assert seen == {1.5: 3, 2.5: 2, 3.0: 1, 3.5: 0}
        assert drop.dropped == 1
        assert [p.seq for _t, p in dst.packets] == [1, 2, 3, 4, 5]

    def test_middle_fault_still_counts_after_outer_removal(self):
        """With three stacked windows, ending the outer two leaves the
        middle one alone holding the link down."""
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        Outage(sim, 1.0, 1.0, targets=[drop])
        Outage(sim, 1.0, 3.0, targets=[drop])
        Outage(sim, 1.0, 2.0, targets=[drop])
        for i in range(7):
            send_at(sim, link, 3.5 + i * 0.01, i)
        send_at(sim, link, 4.5, 7)
        sim.run()
        assert drop.dropped == 7
        assert [p.seq for _t, p in dst.packets] == [7]


class TestBackToBackOutages:
    def test_sequential_outages_and_full_recovery(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        Outage(sim, 1.0, 1.0, targets=[drop])
        Outage(sim, 2.0, 1.0, targets=[drop])
        seen = probe_down(sim, drop, (1.5, 2.5, 3.5))
        send_at(sim, link, 0.5, 0)
        send_at(sim, link, 1.5, 1)
        send_at(sim, link, 2.5, 2)
        send_at(sim, link, 3.5, 3)
        sim.run()
        assert seen == {1.5: 1, 2.5: 1, 3.5: 0}
        assert drop.dropped == 2
        assert [p.seq for _t, p in dst.packets] == [0, 3]

    def test_overlapping_outages(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        Outage(sim, 1.0, 2.0, targets=[drop])
        Outage(sim, 2.0, 2.0, targets=[drop])
        seen = probe_down(sim, drop, (2.5, 3.5, 4.5))
        send_at(sim, link, 2.5, 0)   # both active
        send_at(sim, link, 3.5, 1)   # only the second remains
        send_at(sim, link, 4.5, 2)   # both ended
        sim.run()
        assert seen == {2.5: 2, 3.5: 1, 4.5: 0}
        assert drop.dropped == 2
        assert [p.seq for _t, p in dst.packets] == [2]


class TestFlap:
    """A bouncing link is consecutive outage windows."""

    def test_down_windows_blackhole_up_windows_deliver(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        # Windows: down [1.0,1.5), up [1.5,2.0), down [2.0,2.5), up after.
        for start in (1.0, 2.0):
            Outage(sim, start, 0.5, targets=[drop])
        send_at(sim, link, 1.2, 0)
        send_at(sim, link, 1.7, 1)
        send_at(sim, link, 2.2, 2)
        send_at(sim, link, 2.7, 3)
        sim.run()
        assert drop.dropped == 2
        assert [p.seq for _t, p in dst.packets] == [1, 3]

    def test_end_time_and_validation(self):
        sim = Simulator()
        drop = LinkDrop(simple_link(sim)[0])
        flap = [Outage(sim, 1.0 + 0.75 * k, 0.5, targets=[drop]) for k in range(4)]
        assert flap[-1].end_s == pytest.approx(3.75)
        with pytest.raises(ValueError):
            Outage(sim, 1.0, 0.0, targets=[drop])
        with pytest.raises(ValueError):
            Outage(sim, 1.0, 0.5)  # cuts nothing
        sim.run()
        assert drop.down == 0


#: One fault window on a 0.1 s grid: (what it cuts, start tick, length
#: in ticks).  Ticks from 0 include windows that start at construction.
WINDOWS = st.tuples(
    st.sampled_from(("link", "channel", "both")),
    st.integers(0, 25),
    st.integers(1, 10),
)


class TestCompositionProperty:
    """Any overlap of windows on one link and a control channel heals
    completely once the calendar drains, with every lost packet one the
    link dropped inside a window or to its random loss."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(program=st.lists(WINDOWS, min_size=1, max_size=6), lossy=st.booleans())
    def test_overlapping_windows_heal_and_account(self, program, lossy):
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link, 0.3 if lossy else 0.0, np.random.default_rng(0))
        channel = DownMarks()
        link_windows, channel_windows = [], []
        with flightrec.use() as rec:
            for cut, start, length in program:
                start_s, duration_s = start / 10, length / 10
                targets = []
                if cut != "channel":
                    targets.append(drop)
                    link_windows.append((start_s, start_s + duration_s))
                if cut != "link":
                    targets.append(channel)
                    channel_windows.append((start_s, start_s + duration_s))
                Outage(sim, start_s, duration_s, targets=targets)
            for i in range(300):
                send_at(sim, link, 0.01 * i, i)
            # Off the 0.1 s grid, so no probe ties a window edge.
            probes = [(k + 0.5) / 10 for k in range(40)]
            seen = []
            for t in probes:
                sim.schedule_at(t, lambda: seen.append((drop.down, channel.down)))
            sim.run()

        assert drop.down == 0 and channel.down == 0
        assert link.packets_transmitted - link.packets_delivered == drop.dropped
        assert seen == [
            tuple(
                sum(start <= t < end for start, end in windows)
                for windows in (link_windows, channel_windows)
            )
            for t in probes
        ]
        # A packet arrives ~1.1 ms after it is sent, never on a window edge.
        lag = 0.001 + make_data_packet(1, "a", "b", 0, 100).size_bytes * 8 / 8e6
        reachable = {
            i for i in range(300)
            if not any(start <= 0.01 * i + lag < end for start, end in link_windows)
        }
        delivered = {packet.seq for _t, packet in dst.packets}
        assert delivered <= reachable
        if not lossy:
            assert delivered == reachable
        # Each window begins and ends once per cut component.
        edges = Counter(
            (r["kind"], r["component"]) for r in rec.records() if r["layer"] == "fault"
        )
        for kind in ("fault_begin", "fault_end"):
            assert edges[(kind, "LinkDrop")] == len(link_windows)
            assert edges[(kind, "DownMarks")] == len(channel_windows)
