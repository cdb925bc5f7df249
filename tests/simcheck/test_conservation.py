"""Tests for the packet/byte conservation audits."""

import pytest

from repro.simcheck import (
    InvariantViolation,
    ViolationReport,
    audit_host,
    audit_link,
    audit_queue,
    audit_router,
    audit_topology,
)
from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    Outage,
    Simulator,
    make_data_packet,
)
from repro.simnet.link import Link

from tests.simnet.linkdrop import LinkDrop


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
        # 0.832 s a packet: at 1.0 s packet 1 is on the wire, and nothing
        # has read the ledger since its start passed.
        sim.run(until=1.0)
        assert link._starts[0] == pytest.approx(0.832)
        audit_link(link, sim.now)  # settles first: the law holds
        assert len(link.queue) == 3
        # The stall: nothing pulls the queue any more, and packet 2's start
        # at 1.664 s passes with the packet still queued.
        link.settle = lambda: None
        sim.run(until=2.0)
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert "conservation.link_start_stamps" in [v.invariant for v in report.violations]

    def test_start_stamp_out_of_order_or_without_a_packet_detected(self):
        sim = Simulator()
        link = Link(sim, "L", bandwidth_bps=1e4, delay_s=0.001)
        link.attach(Collector(sim))
        for i in range(5):
            link.send(make_data_packet(1, "a", "b", i, 1000))
        sim.run(until=1.0)
        audit_link(link, sim.now)
        link._starts[1] = 0.5  # behind the clock, behind the head
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert [v.invariant for v in report.violations] == [
            "conservation.link_start_stamps"
        ]
        link._starts[1] = link._starts[0] + 1040 * link._seconds_per_byte
        audit_link(link, sim.now)
        link._starts[2] -= 0.1  # overlaps the serialization ahead of it
        with pytest.raises(InvariantViolation) as excinfo:
            audit_link(link, sim.now)
        assert excinfo.value.invariant == "conservation.link_start_stamps"
        link._starts[2] += 0.1
        link._starts.append(link._busy_until)  # a stamp with no packet
        with pytest.raises(InvariantViolation) as excinfo:
            audit_link(link, sim.now)
        assert excinfo.value.invariant == "conservation.link_start_stamps"

    def test_lost_offered_packet_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link._packets_offered += 1
        with pytest.raises(InvariantViolation) as excinfo:
            audit_link(link, sim.now)
        assert excinfo.value.invariant == "conservation.link_packets"

    def test_byte_ledger_mismatch_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link._bytes_offered += 10  # idle link must have a zero byte residual
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert [v.invariant for v in report.violations] == ["conservation.link_bytes"]

    def test_overdelivery_detected(self):
        sim = Simulator()
        link = loaded_link(sim)
        link._packets_delivered += 1
        report = ViolationReport()
        audit_link(link, sim.now, report=report)
        assert any(
            v.invariant == "conservation.link_wire" for v in report.violations
        )

    def test_dropped_deliveries_leave_only_a_wire_residual(self):
        sim = Simulator()
        link = Link(sim, "L", 8e6, 0.001)
        link.attach(Collector(sim))
        drop = LinkDrop(link)
        Outage(sim, 0.5, 10.0, targets=[drop])
        for i in range(30):
            sim.schedule_at(
                1.0 + 0.01 * i,
                lambda i=i: link.send(make_data_packet(1, "a", "b", i, 1000)),
            )
        sim.run()
        assert drop.dropped == 30
        # On a drained wire the residual is exactly what was dropped.
        assert link.packets_transmitted - link.packets_delivered == 30
        audit_link(link, sim.now)


class TestNodeLaws:
    def test_router_tamper_detected(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        audit_router(top.left_router, sim.now)
        top.left_router._received += 3
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
        top.right_router._forwarded += 1
        report = ViolationReport()
        audit_topology(top, sim.now, report=report)
        assert [v.invariant for v in report.violations] == ["conservation.router"]
        assert report.violations[0].subject == top.right_router.name
