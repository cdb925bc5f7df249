"""Tests for the packet/byte conservation audits."""

import numpy as np
import pytest

from repro.simcheck import (
    InvariantViolation,
    ViolationReport,
    audit_host,
    audit_link,
    audit_queue,
    audit_router,
    audit_topology,
    fault_absorbed_packets,
)
from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    Outage,
    RandomLoss,
    Simulator,
    make_data_packet,
)
from repro.simnet.link import Link


class Target:
    def mark_down(self):
        pass

    def mark_up(self):
        pass


#: An outage of the link alone, and one that also takes a control-plane
#: target down; the wire law must credit what either absorbs.
BLACKHOLES = {
    "link": lambda sim, link, start_s, duration_s: Outage(
        sim, start_s, duration_s, links=[link]
    ),
    "link_and_target": lambda sim, link, start_s, duration_s: Outage(
        sim, start_s, duration_s, links=[link], targets=[Target()]
    ),
}


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, packet, link):
        self.packets.append(packet)


def loaded_link(sim, n_packets=20, bw=8e6, delay=0.001):
    """A link that has carried ``n_packets`` and drained completely."""
    link = Link(sim, "L", bw, delay)
    link.attach(Collector(sim))
    for i in range(n_packets):
        sim.schedule_at(
            0.01 * i, lambda i=i: link.send(make_data_packet(1, "a", "b", i, 1000))
        )
    sim.run()
    return link


def blackholed_link(sim, make):
    """A drained link that sent 30 packets into ``make``'s window, with
    a 50% random loss stacked under it; returns (link, outage, loss)."""
    link = Link(sim, "L", 8e6, 0.001)
    link.attach(Collector(sim))
    outage = make(sim, link, 0.5, 10.0)
    loss = RandomLoss(sim, link, 0.5, np.random.default_rng(0))
    for i in range(30):
        sim.schedule_at(
            1.0 + 0.01 * i,
            lambda i=i: link.send(make_data_packet(1, "a", "b", i, 1000)),
        )
    sim.run()
    return link, outage, loss


class TestQueueLaw:
    def test_clean_queue_passes(self):
        sim = Simulator()
        link = loaded_link(sim)
        audit_queue(link.queue, "L.queue", sim.now)

    def test_tampered_packet_count_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link.queue.stats.enqueued_packets += 1
        with pytest.raises(InvariantViolation) as excinfo:
            audit_queue(link.queue, "L.queue", sim.now)
        assert excinfo.value.invariant == "conservation.queue_packets"

    def test_tampered_byte_count_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link.queue.stats.dequeued_bytes -= 500
        with pytest.raises(InvariantViolation) as excinfo:
            audit_queue(link.queue, "L.queue", sim.now)
        assert excinfo.value.invariant == "conservation.queue_bytes"


class TestLinkLaws:
    def test_drained_link_passes(self):
        sim = Simulator()
        link = loaded_link(sim)
        assert link.packets_delivered == 20
        audit_link(link, sim.now)

    def test_busy_link_passes_mid_serialization(self):
        sim = Simulator()
        link = Link(sim, "L", bandwidth_bps=1e4, delay_s=0.001)  # slow: stays busy
        link.attach(Collector(sim))
        for i in range(5):
            link.send(make_data_packet(1, "a", "b", i, 1000))
        sim.run(until=0.1)  # mid-transfer: one packet serializing, rest queued
        assert link.is_busy
        audit_link(link, sim.now)

    def test_queued_packets_nobody_will_pull_detected(self):
        sim = Simulator()
        link = Link(sim, "L", bandwidth_bps=1e4, delay_s=0.001)
        link.attach(Collector(sim))
        for i in range(5):
            link.send(make_data_packet(1, "a", "b", i, 1000))
        sim.run(until=0.1)
        assert len(link.queue) > 0
        link._dequeue_armed = False  # the stall: no ledger is off by a packet
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert [v.invariant for v in report.violations] == [
            "conservation.link_dequeue_armed"
        ]

    def test_dequeue_event_armed_on_empty_queue_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link._dequeue_armed = True
        with pytest.raises(InvariantViolation) as excinfo:
            audit_link(link, sim.now)
        assert excinfo.value.invariant == "conservation.link_dequeue_armed"

    def test_dequeue_event_may_outlive_a_flushed_queue(self):
        sim = Simulator()
        link = Link(sim, "L", bandwidth_bps=1e4, delay_s=0.001)
        link.attach(Collector(sim))
        for i in range(3):
            link.send(make_data_packet(1, "a", "b", i, 1000))
        link.queue.flush()
        audit_link(link, sim.now)  # armed for packets that are gone
        sim.run()
        audit_link(link, sim.now)  # fired as a no-op

    def test_lost_offered_packet_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link.packets_offered += 1
        with pytest.raises(InvariantViolation) as excinfo:
            audit_link(link, sim.now)
        assert excinfo.value.invariant == "conservation.link_packets"

    def test_byte_ledger_mismatch_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link.bytes_offered += 10  # idle link must have a zero byte residual
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert [v.invariant for v in report.violations] == ["conservation.link_bytes"]

    def test_overdelivery_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link.packets_delivered += 1
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert any(
            v.invariant == "conservation.link_wire" for v in report.violations
        )
        # A black hole's credit must not hide an over-delivery either,
        # whichever kind of fault cut the link.
        for kind, make in BLACKHOLES.items():
            sim = Simulator()
            link, outage, loss = blackholed_link(sim, make)
            audit_link(link, sim.now, faults=[outage, loss])
            link.packets_delivered += 1
            report = ViolationReport()
            audit_link(link, sim.now, faults=[outage, loss], report=report)
            assert any(
                v.invariant == "conservation.link_wire" for v in report.violations
            ), kind

    def test_blackholed_packets_credited_to_faults(self):
        for kind, make in BLACKHOLES.items():
            sim = Simulator()
            link, outage, loss = blackholed_link(sim, make)
            absorbed = fault_absorbed_packets(link, [outage, loss])
            assert absorbed == outage.packets_blackholed + loss.packets_dropped, kind
            assert absorbed == 30, kind  # whatever loss passes, the outage eats
            # Absorbed packets show up as the wire residual; crediting the
            # faults makes the law exact on this drained link.
            assert link.packets_transmitted - link.packets_delivered == absorbed, kind
            audit_link(link, sim.now, faults=[outage, loss])

    def test_foreign_faults_not_credited(self):
        sim = Simulator()
        link = loaded_link(sim)
        other = Link(sim, "other", 8e6, 0.001)
        other.attach(Collector(sim))
        foreign = Outage(sim, sim.now + 1.0, 1.0, links=[other])
        assert fault_absorbed_packets(link, [foreign]) == 0


class TestNodeLaws:
    def test_router_tamper_detected(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        audit_router(top.left_router, sim.now)
        top.left_router.packets_received += 3
        with pytest.raises(InvariantViolation) as excinfo:
            audit_router(top.left_router, sim.now)
        assert excinfo.value.invariant == "conservation.router"

    def test_host_discard_overrun_detected(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        host = top.senders[0]
        audit_host(host, sim.now)
        host.packets_discarded = host.packets_received + 1
        with pytest.raises(InvariantViolation) as excinfo:
            audit_host(host, sim.now)
        assert excinfo.value.invariant == "conservation.host"


class TestTopologyAudit:
    def test_fresh_dumbbell_passes(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=4))
        report = ViolationReport()
        audit_topology(top, sim.now, report=report)
        assert report.ok
        assert report.checks_performed > 0

    def test_single_corruption_is_localized(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=4))
        top.right_router.packets_forwarded += 1
        report = ViolationReport()
        audit_topology(top, sim.now, report=report)
        assert [v.invariant for v in report.violations] == ["conservation.router"]
        assert report.violations[0].subject == top.right_router.name
