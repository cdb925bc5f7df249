"""Model test: the fused link against the two-event link it replaced.

:class:`ReferenceLink` is the previous ``Link``, kept line for line less
its argument checks and flight-recorder emits: the end of serialization
is an *event* (``_transmit_done``) that counts the packet, schedules its
delivery and pulls the next one off the queue.  The current ``Link``
keeps that instant as a time (``_busy_until``) and schedules the delivery
when serialization starts.  Whole scenarios run under both, with every
delivery and drop logged; the logs must be equal in value and order, and
so must everything the run reports, with one exception that is asserted
rather than explained: a packet offered at the exact instant the wire
clears, nothing queued, always goes straight to the wire on the fused
link, while the reference passed it through the queue (enqueue and
dequeue in the same instant) whenever the send happened to run before the
``_transmit_done`` of the same time.  That moves ``enqueued_packets`` —
and ``loss_rate = dropped / (enqueued + dropped)`` with it — and nothing
else.
"""

from dataclasses import asdict

import numpy as np
import pytest

import repro.simnet.topology as topology_module
from repro.experiments import (
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    run_cubic_fixed,
    run_partitioned_phi_cubic,
)
from repro.phi import REFERENCE_POLICY
from repro.runner import flow_records
from repro.simcheck import audit_link
from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.packet import make_data_packet
from repro.simnet.queues import DropTailQueue, PriorityQueue
from repro.simnet.red import RedQueue
from repro.transport import CubicParams


class ReferenceLink:
    """The two-event link: ``_transmit`` -> ``_transmit_done`` -> ``_deliver``."""

    def __init__(self, sim, name, bandwidth_bps, delay_s, queue=None):
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue(None, lambda: sim.now)
        self.dst_node = None
        self._busy = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        self.bytes_offered = 0
        self.packets_offered = 0
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self._busy_seconds = 0.0
        self._tx_started_at = 0.0
        self.created_at = sim.now
        self._seconds_per_byte = 8.0 / bandwidth_bps
        self._schedule = sim.schedule

    def attach(self, dst_node):
        self.dst_node = dst_node

    def send(self, packet):
        self.packets_offered += 1
        self.bytes_offered += packet.size_bytes
        if self._busy:
            self.queue.enqueue(packet)
            return
        self._transmit(packet)

    def _transmit(self, packet):
        self._busy = True
        self._tx_started_at = self.sim._now
        tx_time = packet.size_bytes * self._seconds_per_byte
        self._schedule(tx_time, self._transmit_done, packet)

    def _transmit_done(self, packet):
        self.bytes_transmitted += packet.size_bytes
        self.packets_transmitted += 1
        self._busy_seconds += self.sim._now - self._tx_started_at
        self._schedule(self.delay_s, self._deliver, packet)
        next_packet = self.queue.dequeue()
        if next_packet is not None:
            self._transmit(next_packet)
        else:
            self._busy = False

    def _deliver(self, packet):
        packet.hops += 1
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        self.dst_node.receive(packet, self)

    def utilization(self, since=0.0, until=None):
        end = self.sim.now if until is None else until
        elapsed = end - since
        if elapsed <= 0:
            return 0.0
        busy = self._busy_seconds
        if self._busy:
            busy += self.sim.now - self._tx_started_at
        return min(1.0, busy / elapsed)

    @property
    def is_busy(self):
        return self._busy

    @property
    def _dequeue_armed(self):
        # What simcheck's ``link_dequeue_armed`` law reads (the oracle runs
        # under REPRO_SIMCHECK=1 too): here the pending ``_transmit_done``
        # is what pulls the queue.
        return self._busy and len(self.queue) > 0


def logged(base):
    """``base`` with every delivery and drop logged, in one list per class."""

    class Logged(base):
        log = []
        links = {}

        def __init__(self, sim, name, *args, **kwargs):
            super().__init__(sim, name, *args, **kwargs)
            self.links[name] = self
            #: sends that met ``now == _busy_until`` with nothing queued
            self.ties = 0

        def send(self, packet):
            now = self.sim.now
            if base is Link and not len(self.queue) and now == self._busy_until:
                self.ties += 1
            dropped = self.queue.stats.dropped_packets
            super().send(packet)
            if self.queue.stats.dropped_packets != dropped:
                self.log.append((now, self.name, packet.flow_id, packet.packet_id, "drop"))

        def _deliver(self, packet):
            self.log.append(
                (self.sim.now, self.name, packet.flow_id, packet.packet_id, "deliver")
            )
            super()._deliver(packet)

    return Logged


def _rebased(log):
    """``log`` with packet ids counted from its lowest (the id counter is
    process-wide, so a later run starts higher)."""
    first = min(record[3] for record in log)
    return [(t, link, flow, packet_id - first, kind) for t, link, flow, packet_id, kind in log]


PARAMS = CubicParams(4, 64, 0.7)


def _partitioned_phi():
    return run_partitioned_phi_cubic(
        REFERENCE_POLICY,
        TABLE3_REMY,
        n_replicas=3,
        severity=0.34,
        partition_start_s=2.0,
        heal_s=3.0,
        seed=1,
        duration_s=8.0,
    ).result


SCENARIOS = {
    "table3-seed1": lambda: run_cubic_fixed(PARAMS, TABLE3_REMY, seed=1, duration_s=10.0),
    "table3-seed2": lambda: run_cubic_fixed(PARAMS, TABLE3_REMY, seed=2, duration_s=10.0),
    "fig2c-seed1": lambda: run_cubic_fixed(PARAMS, FIG2C_LONG_RUNNING, seed=1, duration_s=4.0),
    "fig2c-seed2": lambda: run_cubic_fixed(PARAMS, FIG2C_LONG_RUNNING, seed=2, duration_s=4.0),
    "partitioned-phi": _partitioned_phi,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_is_equal_under_both_links(name, monkeypatch):
    runs = {}
    for base in (ReferenceLink, Link):
        link_class = logged(base)
        monkeypatch.setattr(topology_module, "Link", link_class)
        runs[base] = (SCENARIOS[name](), link_class)
    (want, reference), (got, fused) = runs[ReferenceLink], runs[Link]

    assert len(fused.log) > 1000
    assert _rebased(fused.log) == _rebased(reference.log)

    assert flow_records(got.per_sender_stats) == flow_records(want.per_sender_stats)
    assert got.mean_utilization == want.mean_utilization
    skipped = {}
    for link_name, link in fused.links.items():
        stats, ref_stats = link.queue.stats, reference.links[link_name].queue.stats
        skipped[link_name] = ref_stats.enqueued_packets - stats.enqueued_packets
        assert 0 <= skipped[link_name] <= link.ties, link_name
        assert stats.dropped_packets == ref_stats.dropped_packets
        assert stats.peak_bytes == ref_stats.peak_bytes
        assert stats.occupancy_byte_seconds == ref_stats.occupancy_byte_seconds
        assert link.packets_delivered == reference.links[link_name].packets_delivered

    got_metrics, want_metrics = asdict(got.metrics), asdict(want.metrics)
    got_loss, want_loss = got_metrics.pop("loss_rate"), want_metrics.pop("loss_rate")
    assert got_metrics == want_metrics
    if skipped["bottleneck"] and fused.links["bottleneck"].queue.stats.dropped_packets:
        # Fewer arrivals counted as enqueued: the same drops weigh more.
        assert got_loss > want_loss
    else:
        assert got_loss == want_loss
    assert got.events_processed < want.events_processed


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, link):
        self.arrivals.append((self.sim.now, packet.seq))


def make(link_class, sim, queue=None):
    """A 1 ms-per-1000-byte, 10 ms link into a collector."""
    link = link_class(sim, "L", 8e6, 0.01, queue)
    link.attach(Collector(sim))
    return link


def packet(seq, priority=0):
    p = make_data_packet(1, "a", "b", seq, 960)  # 1000 B on the wire
    p.priority = priority
    return p


#: Wire time of one :func:`packet` on a :func:`make` link, as the links compute it.
TX = 1000 * (8.0 / 8e6)


class TestTieAtBusyUntil:
    """The one place the two links differ, built by hand."""

    @pytest.mark.parametrize("send_first", [True, False])
    def test_arrival_at_the_instant_the_wire_clears(self, send_first):
        enqueued = {}
        arrivals = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            link = make(link_class, sim)
            # TX is exactly when packet 0 leaves the wire; of two events at
            # one time the one scheduled first runs first.
            if send_first:
                sim.schedule_at(TX, link.send, packet(1))
            link.send(packet(0))
            if not send_first:
                sim.schedule_at(TX, link.send, packet(1))
            sim.run()
            enqueued[link_class] = link.queue.stats.enqueued_packets
            arrivals[link_class] = link.dst_node.arrivals
            audit_link(link, sim.now)
        assert arrivals[Link] == arrivals[ReferenceLink] == [(TX + 0.01, 0), (TX + TX + 0.01, 1)]
        assert enqueued[ReferenceLink] == (1 if send_first else 0)
        assert enqueued[Link] == 0


class TestDequeueEvent:
    def test_one_event_per_idle_hop_two_per_queued_packet(self):
        sim = Simulator()
        link = make(Link, sim)
        link.send(packet(0))
        assert sim.pending_events == 1  # the delivery, nothing else
        link.send(packet(1))
        link.send(packet(2))
        assert sim.pending_events == 2  # + one dequeue event for both queued
        sim.run()
        assert sim.events_processed == 5  # 3 deliveries + 2 dequeues
        assert not link._dequeue_armed

    def test_flush_while_armed_then_fresh_send(self):
        arrivals = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            link = make(link_class, sim)
            link.send(packet(0))
            link.send(packet(1))
            assert [p.seq for p in link.queue.flush()] == [1]
            # Packet 0 is still serializing: the fresh send queues behind
            # it, and the event armed for the flushed packet pulls it.
            sim.schedule_at(0.5 * TX, link.send, packet(2))
            sim.run()
            audit_link(link, sim.now)
            assert sim.pending_events == 0
            sim.schedule_at(1.0, link.send, packet(3))
            sim.run()
            audit_link(link, sim.now)
            arrivals[link_class] = link.dst_node.arrivals
        assert arrivals[Link] == arrivals[ReferenceLink]
        assert arrivals[Link] == [(TX + 0.01, 0), (TX + TX + 0.01, 2), (1.0 + TX + 0.01, 3)]

    def test_flushed_queue_makes_the_pending_event_a_no_op(self):
        sim = Simulator()
        link = make(Link, sim)
        link.send(packet(0))
        link.send(packet(1))
        link.queue.flush()
        sim.run()
        assert link.dst_node.arrivals == [(TX + 0.01, 0)]
        assert not link._dequeue_armed
        assert sim.events_processed == 2  # the delivery and the no-op
        audit_link(link, sim.now)
        link.send(packet(2))
        assert sim.pending_events == 1  # idle again: straight to the wire


class TestQueueDisciplinesBehindTheLink:
    def test_priority_queue_dequeues_in_priority_then_fifo_order(self):
        orders = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            link = make(link_class, sim, PriorityQueue(None, lambda sim=sim: sim.now))
            for seq, priority in enumerate([1, 1, 0, 1, 0]):
                link.send(packet(seq, priority))
            sim.run()
            orders[link_class] = link.dst_node.arrivals
        # Packet 0 met an idle wire; the rest left by (priority, arrival).
        assert [seq for _, seq in orders[Link]] == [0, 2, 4, 1, 3]
        assert orders[Link] == orders[ReferenceLink]

    def test_red_queue_drops_and_order_are_the_reference_s(self):
        outcomes = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            queue = RedQueue(
                20_000,
                lambda sim=sim: sim.now,
                np.random.default_rng(7),
                min_thresh_bytes=2_000,
                max_thresh_bytes=8_000,
                max_probability=0.5,
                weight=0.5,
            )
            link = make(link_class, sim, queue)
            for seq in range(60):  # 3 packets per serialization time
                sim.schedule_at(seq * 0.00033, link.send, packet(seq))
            sim.run()
            audit_link(link, sim.now)
            outcomes[link_class] = (link.dst_node.arrivals, queue.early_drops)
        arrivals, early_drops = outcomes[Link]
        assert early_drops > 0 and len(arrivals) == 60 - early_drops
        assert [seq for _, seq in arrivals] == sorted(seq for _, seq in arrivals)
        assert outcomes[Link] == outcomes[ReferenceLink]


class TestLazilySettledLedger:
    """Committed when serialization starts, read as if counted when it ends."""

    def read(self, link):
        return (
            link.packets_transmitted,
            link.bytes_transmitted,
            link.is_busy,
            link.utilization(),
        )

    def test_mid_serialization_at_busy_until_and_after(self):
        readings = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            link = make(link_class, sim)
            seen = readings[link_class] = {}

            def probe(label, link=link, seen=seen):
                seen[label] = self.read(link)

            def probe_then_arm(label):
                probe(label)
                # Scheduled while packet 1 serializes, so on the reference
                # it runs after the ``_transmit_done`` of the same time.
                sim.schedule_at(TX + TX, probe, "at busy_until")

            link.send(packet(0))
            link.send(packet(1))
            # TX + TX is the exact instant packet 1 leaves the wire.
            sim.schedule_at(TX + TX, probe, "at busy_until, scheduled early")
            sim.schedule_at(0.5 * TX, probe, "first")
            sim.schedule_at(1.5 * TX, probe_then_arm, "second")
            sim.schedule_at(2.5 * TX, probe, "after")
            sim.run()
            audit_link(link, sim.now)
        fused, reference = readings[Link], readings[ReferenceLink]
        assert fused["first"][:3] == (0, 0, True)
        assert fused["second"][:3] == (1, 1000, True)
        assert fused["at busy_until"][:3] == (2, 2000, False)
        assert fused["after"][:3] == (2, 2000, False)
        assert fused["first"][3] == pytest.approx(1.0)
        assert fused["after"][3] == pytest.approx(0.8)
        # At the exact instant the reference's answer followed event order;
        # the fused link's does not.
        assert fused["at busy_until, scheduled early"] == fused["at busy_until"]
        assert reference.pop("at busy_until, scheduled early")[:3] == (1, 1000, True)
        for label, reading in reference.items():
            assert fused[label][:3] == reading[:3]
            assert fused[label][3] == pytest.approx(reading[3], rel=1e-12)

    def test_every_law_holds_at_every_instant_of_a_burst(self):
        sim = Simulator()
        link = make(Link, sim, DropTailQueue(3000, lambda: sim.now))
        for seq in range(12):
            sim.schedule_at(seq * 0.0004, link.send, packet(seq))
        for tick in range(200):
            sim.schedule_at(tick * 0.0001, audit_link, link, tick * 0.0001)
        sim.run()
        assert link.queue.stats.dropped_packets > 0
        assert link.packets_transmitted == link.packets_delivered > 0
