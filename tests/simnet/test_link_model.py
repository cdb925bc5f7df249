"""Model test: the link as a function of its arrivals, against the
two-event link it replaced.

:class:`ReferenceLink` is the two-event link, kept line for line less its
argument checks, flight-recorder emits and since-deleted counters: the
end of serialization is an *event* (``_transmit_done``) that counts the
packet, schedules its delivery and pulls the next one off the queue, and
every hop is its own events.  The current ``Link`` fixes a packet's start
when it is offered, posts only its delivery and dequeues lazily; on the
dumbbell the bottleneck and the reverse link also compute the access hop
behind their router (``Link.cut_through``) and post the delivery at the
host.  Whole scenarios run under both, with every host delivery and every
drop logged; the logs must be equal in value and order (the router hops'
deliveries are gone by design), and so must everything the run reports,
with exceptions that are asserted rather than explained.  They are the
same-time ties: a packet offered at the exact instant the wire clears, or
a waiting head starts, meets the wire clear or the head gone on the new
link, while the reference ordered it against its ``_transmit_done`` of
the same time.  That moves ``enqueued_packets`` (the packet skips the
queue), and with it ``loss_rate = dropped / (enqueued + dropped)``.
"""

from dataclasses import asdict

import numpy as np
import pytest

import repro.simnet.topology as topology_module
from repro import flightrec
from repro.experiments import (
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    run_cubic_fixed,
    run_partitioned_phi_cubic,
)
from repro.phi import REFERENCE_POLICY
from repro.runner import flow_records
from repro.simcheck import audit_link, audit_router
from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.link import Link
from repro.simnet.monitor import LinkMonitor
from repro.simnet.node import Router
from repro.simnet.packet import make_data_packet
from repro.simnet.queues import DropTailQueue
from repro.simnet.red import WEIGHT, RedQueue
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
        self.packets_delivered = 0
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
        tx_time = packet.size_bytes * self._seconds_per_byte
        self._schedule(tx_time, self._transmit_done, packet)
        self._clears = self.sim.now + tx_time

    def _transmit_done(self, packet):
        self.bytes_transmitted += packet.size_bytes
        self.packets_transmitted += 1
        self._schedule(self.delay_s, self._deliver, packet)
        next_packet = self.queue.dequeue()
        if next_packet is not None:
            self._transmit(next_packet)
        else:
            self._busy = False

    def _deliver(self, packet):
        self.packets_delivered += 1
        self.dst_node.receive(packet, self)

    @property
    def is_busy(self):
        return self._busy

    # What the topology and simcheck's start-stamp law call on a link (the
    # oracle runs under REPRO_SIMCHECK=1 too): every hop is its own events,
    # the ledger is eager, and the queued packets start back to back once
    # the one on the wire clears.
    def cut_through(self):
        pass

    def settle(self):
        pass

    @property
    def _starts(self):
        if not self.queue._queue:
            return []
        starts, start = [], self._clears
        for queued in self.queue._queue:
            starts.append(start)
            start += queued.size_bytes * self._seconds_per_byte
        return starts


def at_a_tie(link, now):
    """Whether ``now`` is the instant ``link``'s wire clears or a waiting
    packet starts (reads only stamps the offer settles anyway)."""
    if now == link._busy_until:
        return True
    for start in link._starts:
        if start >= now:
            return start == now
    return False


def logged(base):
    """``base`` with every delivery and drop logged, in one list per class."""

    class Logged(base):
        log = []
        links = {}

        def __init__(self, sim, name, *args, **kwargs):
            super().__init__(sim, name, *args, **kwargs)
            self.links[name] = self
            #: offers that met a tie (see :func:`at_a_tie`)
            self.ties = 0

        def send(self, packet):
            now = self.sim.now
            if base is Link and at_a_tie(self, now):
                self.ties += 1
            dropped = self.queue.stats.dropped_packets
            super().send(packet)
            if self.queue.stats.dropped_packets != dropped:
                self.log.append((now, self.name, packet.flow_id, packet.packet_id, "drop"))

        def _arrive(self, packet, now, start):
            if at_a_tie(self, now):
                self.ties += 1
            super()._arrive(packet, now, start)

        def _deliver(self, packet):
            self.log.append(
                (self.sim.now, self.name, packet.flow_id, packet.packet_id, "deliver")
            )
            super()._deliver(packet)

    return Logged


def _host_log(link_class):
    """The class's log less the deliveries into a router, with packet ids
    counted from its lowest (the id counter is process-wide, so a later
    run starts higher)."""
    log = [
        record for record in link_class.log
        if record[4] == "drop" or not isinstance(link_class.links[record[1]].dst_node, Router)
    ]
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

    host_log = _host_log(fused)
    assert len(host_log) > 1000
    assert host_log == _host_log(reference)

    assert flow_records(got.per_sender_stats) == flow_records(want.per_sender_stats)
    assert got.mean_utilization == want.mean_utilization
    skipped = {}
    for link_name, link in fused.links.items():
        stats, ref_stats = link.queue.stats, reference.links[link_name].queue.stats
        skipped[link_name] = ref_stats.enqueued_packets - stats.enqueued_packets
        assert 0 <= skipped[link_name] <= link.ties, link_name
        assert stats.dropped_packets == ref_stats.dropped_packets
        assert stats.peak_packets == ref_stats.peak_packets
        assert link.packets_delivered == reference.links[link_name].packets_delivered

    got_metrics, want_metrics = asdict(got.metrics), asdict(want.metrics)
    got_loss, want_loss = got_metrics.pop("loss_rate"), want_metrics.pop("loss_rate")
    assert got_metrics == want_metrics
    if skipped["bottleneck"] and fused.links["bottleneck"].queue.stats.dropped_packets:
        # Fewer arrivals counted as enqueued: the same drops weigh more.
        assert got_loss > want_loss
    else:
        assert got_loss == want_loss
    # One event per hop against two per hop plus one per queued packet.
    assert got.events_processed < 0.7 * want.events_processed


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


def packet(seq, payload_bytes=960):
    return make_data_packet(1, "a", "b", seq, payload_bytes)  # 1000 B on the wire


#: Wire time of one :func:`packet` on a :func:`make` link, as the links compute it.
TX = 1000 * (8.0 / 8e6)


class TestTieAtBusyUntil:
    """An offer at the instant the wire clears, nothing waiting."""

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


#: Dyadic times, so every sum below is exact and a tie is a true tie: 8
#: Mbit/s binary puts 1024 wire bytes (:data:`PAYLOAD`) at 2**-10 s.
BANDWIDTH = 8.0 * 2**20
PAYLOAD = 984
WIRE = 2.0**-10
DELAY = 2.0**-7


def red_queue(sim, capacity_bytes):
    return RedQueue(
        capacity_bytes,
        lambda: sim.now,
        np.random.default_rng(3),
        min_thresh_bytes=1.0,
        max_thresh_bytes=1e6,
        max_probability=0.5,
    )


class TestTieAtAWaitingHead:
    """An offer at the exact instant a waiting head starts.

    Packets 0 and 1 are offered at once; packet 1 waits, starting at WIRE,
    and packet 2 is offered at WIRE.  The new link has dequeued packet 1
    by then, whatever the order of same-time events; the reference still
    holds it when the offer runs before its ``_transmit_done``.
    """

    def run(self, link_class, queue_for, send_first):
        sim = Simulator()
        queue = queue_for(sim)
        link = link_class(sim, "L", BANDWIDTH, DELAY, queue)
        link.attach(Collector(sim))
        monitor = LinkMonitor(sim, link, period_s=WIRE)
        if send_first:
            sim.schedule_at(WIRE, link.send, packet(2, PAYLOAD))
        monitor.start()  # samples at WIRE, 2 WIRE, ...
        link.send(packet(0, PAYLOAD))
        link.send(packet(1, PAYLOAD))
        if not send_first:
            sim.schedule_at(WIRE, link.send, packet(2, PAYLOAD))
        sim.run(until=12 * WIRE)  # packet 2 is home at 3 WIRE + DELAY
        audit_link(link, sim.now)
        return link, [(s.time, s.queue_bytes) for s in monitor.samples]

    @pytest.mark.parametrize("send_first", [True, False])
    def test_drop_tail_one_packet_of_room(self, send_first):
        room = lambda sim: DropTailQueue(1024, lambda: sim.now)  # noqa: E731
        fused, fused_samples = self.run(Link, room, send_first)
        reference, ref_samples = self.run(ReferenceLink, room, send_first)
        # The new link always finds the room packet 1 left.
        assert [seq for _, seq in fused.dst_node.arrivals] == [0, 1, 2]
        assert fused.queue.stats.dropped_packets == 0
        # Its monitor, started before any send, samples before a same-time
        # offer and sees only the packets still waiting.
        assert [queued for _, queued in fused_samples[:3]] == (
            [1024, 0, 0] if send_first else [0, 0, 0]
        )
        if send_first:
            # The reference ran the offer before packet 1 left: a full queue.
            assert [seq for _, seq in reference.dst_node.arrivals] == [0, 1]
            assert reference.queue.stats.dropped_packets == 1
            assert ref_samples[:3] == fused_samples[:3]
        else:
            assert reference.dst_node.arrivals == fused.dst_node.arrivals
            assert reference.queue.stats.dropped_packets == 0
            # The samples at WIRE and 2 WIRE ran before the reference's
            # ``_transmit_done`` of the same time: the head still queued.
            assert [queued for _, queued in ref_samples[:3]] == [1024, 1024, 0]
        assert ref_samples[3:] == fused_samples[3:]

    @pytest.mark.parametrize("send_first", [True, False])
    def test_red_averages_what_waits(self, send_first):
        fused, _ = self.run(Link, lambda sim: red_queue(sim, None), send_first)
        reference, _ = self.run(ReferenceLink, lambda sim: red_queue(sim, None), send_first)
        assert [seq for _, seq in fused.dst_node.arrivals] == [0, 1, 2]
        assert reference.dst_node.arrivals == fused.dst_node.arrivals
        assert fused.queue.early_drops == reference.queue.early_drops == 0
        # Nothing waited when packet 1 arrived.  At packet 2 the new link
        # averages what still waits, nothing; the reference, when the offer
        # ran first, the head it had not yet pulled.
        assert fused.queue.avg_queue_bytes == 0.0
        assert reference.queue.avg_queue_bytes == (WEIGHT * 1024 if send_first else 0.0)


def pipeline(link_class, queue, sim, bandwidth=BANDWIDTH, delay=DELAY, egress_bandwidth=None):
    """U -> R -> E -> host: ``U`` holds ``queue``; on the new link ``U``
    cuts through to ``E``, which has ``U``'s bandwidth unless given, so
    back-to-back packets reach ``E`` at the instant its wire clears."""
    router, host = Router("R"), Collector(sim)
    upstream = link_class(sim, "U", bandwidth, delay, queue)
    egress = link_class(sim, "E", egress_bandwidth or bandwidth, delay)
    upstream.attach(router)
    egress.attach(host)
    router.add_route("h", egress)
    upstream.cut_through()
    return upstream, router, egress


def to_host(seq):
    return make_data_packet(1, "a", "h", seq, PAYLOAD)


class TestCutThroughHop:
    """The hop behind the router, computed when the upstream commits."""

    #: Offer times: a back-to-back burst, a packet at a waiting head's
    #: exact start, one at the instant the wire clears, one into an idle
    #: link.
    OFFERS = [0.0, 0.0, 0.0, WIRE, 3 * WIRE, 4 * WIRE, 6 * WIRE, 0.25]

    def run(self, link_class, queue_for):
        sim = Simulator()
        upstream, router, egress = pipeline(link_class, queue_for(sim), sim)
        for seq, at in enumerate(self.OFFERS):
            sim.schedule_at(at, upstream.send, to_host(seq))
        # Off the grid of ties, so both links read the same instant.
        readings = []

        def read():
            for link in (upstream, egress):
                audit_link(link, sim.now)
                readings.append(
                    (link.name, link.packets_offered, link.packets_transmitted,
                     link.bytes_transmitted, link.packets_delivered, len(link.queue))
                )
            audit_router(router, sim.now)
            readings.append((router.packets_received, router.packets_forwarded))

        for tick in range(40):
            sim.schedule_at(WIRE / 3 + tick * WIRE, read)
        sim.run()
        return sim, upstream, egress, readings

    @pytest.mark.parametrize(
        "queue_for",
        [lambda sim: DropTailQueue(4096, lambda: sim.now), lambda sim: red_queue(sim, 4096)],
        ids=["drop-tail", "red"],
    )
    def test_host_deliveries_and_ledgers_are_the_reference_s(self, queue_for):
        ref_sim, ref_upstream, ref_egress, ref_readings = self.run(ReferenceLink, queue_for)
        sim, upstream, egress, readings = self.run(Link, queue_for)
        arrivals = egress.dst_node.arrivals
        assert [seq for _, seq in arrivals] == list(range(len(self.OFFERS)))
        assert arrivals == ref_egress.dst_node.arrivals
        assert readings == ref_readings
        stats, ref_stats = upstream.queue.stats, ref_upstream.queue.stats
        assert stats.dropped_packets == ref_stats.dropped_packets == 0
        # The ties, each an offer the reference ran before its
        # ``_transmit_done`` of the same time: the one at 6 WIRE, as the wire
        # cleared, went through its queue; the three at a waiting head's
        # start found the head still queued (a deeper peak, and RED averages
        # more); and every back-to-back packet reached the egress as its
        # wire cleared and went through the egress queue there.
        assert ref_stats.enqueued_packets == stats.enqueued_packets + 1
        assert ref_stats.peak_packets == stats.peak_packets + 1
        if isinstance(upstream.queue, RedQueue):
            assert upstream.queue.avg_queue_bytes < ref_upstream.queue.avg_queue_bytes
        assert ref_egress.queue.stats.enqueued_packets == 6
        assert egress.queue.stats.enqueued_packets == 0
        # Per packet its offer and one event, the host delivery, against
        # two per hop on the reference; and the 40 reads.
        assert sim.events_processed == 2 * len(self.OFFERS) + 40
        assert ref_sim.events_processed == 5 * len(self.OFFERS) + 40

    def test_an_egress_slower_than_its_feeder_queues_as_the_reference_s(self):
        outcomes = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            upstream, router, egress = pipeline(
                link_class, None, sim, egress_bandwidth=BANDWIDTH / 2
            )
            for seq in range(6):
                upstream.send(to_host(seq))
            readings = []
            for tick in range(20):
                sim.schedule_at(
                    DELAY + WIRE / 3 + tick * WIRE,
                    lambda: readings.append((egress.packets_offered, len(egress.queue))),
                )
            with flightrec.use() as recorder:
                sim.run()
            audit_link(egress, sim.now)
            stats = egress.queue.stats
            outcomes[link_class] = (
                egress.dst_node.arrivals, readings, stats.enqueued_packets, stats.peak_packets
            )
        assert outcomes[Link] == outcomes[ReferenceLink]
        arrivals, _, enqueued, peak = outcomes[Link]
        assert enqueued == 5 and peak == 3
        # The egress's records, stamped with the computed times.
        kinds = [
            (record["kind"], record["t"]) for record in recorder.records()
            if record["layer"] == "simnet" and record["component"] == "E"
        ]
        assert sorted(t for kind, t in kinds if kind == "transmit") == [
            t - DELAY for t, _ in arrivals
        ]
        assert sum(kind == "enqueue" for kind, _ in kinds) == 5
        assert sum(kind == "dequeue" for kind, _ in kinds) == 5

    def test_an_egress_queue_swapped_for_one_that_drops_raises(self):
        sim = Simulator()
        upstream, router, egress = pipeline(Link, None, sim, egress_bandwidth=BANDWIDTH / 2)
        with pytest.raises(ValueError, match="cut-through egress E has a queue that can drop"):
            egress.queue = DropTailQueue(1024, lambda: sim.now)
        with pytest.raises(ValueError, match="can drop"):
            egress.queue = red_queue(sim, None)
        # An unbounded drop-tail queue is taken, and carries the traffic.
        egress.queue = fresh = DropTailQueue(None, lambda: sim.now)
        for seq in range(4):
            upstream.send(to_host(seq))
        sim.run()
        assert [seq for _, seq in egress.dst_node.arrivals] == [0, 1, 2, 3]
        assert egress.queue is fresh and fresh.stats.enqueued_packets == 3

    def test_a_queue_made_droppable_behind_the_link_s_back_raises_at_the_replay(self):
        sim = Simulator()
        upstream, router, egress = pipeline(Link, None, sim, egress_bandwidth=BANDWIDTH / 2)
        egress._queue.capacity_bytes = 1024
        for seq in range(4):
            upstream.send(to_host(seq))
        sim.run()
        # The replay, on the first read, finds the drop the post assumed away.
        with pytest.raises(SimulationError, match="cut-through link E dropped"):
            egress.settle()

    def test_a_cut_through_egress_refuses_any_other_feeder(self):
        sim = Simulator()
        upstream, router, egress = pipeline(Link, None, sim)
        other = Link(sim, "other", BANDWIDTH, DELAY)
        other.attach(router)
        other.send(to_host(0))
        with pytest.raises(SimulationError, match="cut-through link E"):
            sim.run()

    def test_an_egress_queue_that_can_drop_is_refused(self):
        sim = Simulator()
        router = Router("R")
        upstream = Link(sim, "U", BANDWIDTH, DELAY)
        upstream.attach(router)
        egress = Link(sim, "E", BANDWIDTH, DELAY, DropTailQueue(4096, lambda: sim.now))
        router.add_route("h", egress)
        with pytest.raises(ValueError, match="can drop"):
            upstream.cut_through()


class TestDequeueEvent:
    def test_one_event_per_delivered_packet_none_per_queued_one(self):
        sim = Simulator()
        link = make(Link, sim)
        link.send(packet(0))
        assert sim.pending_events == 1  # the delivery, nothing else
        link.send(packet(1))
        link.send(packet(2))
        assert len(link.queue) == 2
        assert sim.pending_events == 3  # one delivery each, queued or not
        sim.run()
        assert sim.events_processed == 3
        audit_link(link, sim.now)
        assert len(link.queue) == 0 and link.queue.stats.dequeued_packets == 2

    def test_a_queue_is_swapped_only_before_any_traffic(self):
        sim = Simulator()
        link = make(Link, sim, DropTailQueue(2000, lambda: sim.now))
        for seq in range(4):
            link.send(packet(seq))
        with pytest.raises(ValueError, match="link L has carried traffic"):
            link.queue = DropTailQueue(None, lambda: sim.now)
        # Drained, it still refuses: the drops are the old queue's.
        sim.run()
        with pytest.raises(ValueError, match="link L has carried traffic"):
            link.queue = DropTailQueue(None, lambda: sim.now)
        assert link.queue.stats.dropped_packets == 1
        audit_link(link, sim.now)

    @pytest.mark.parametrize(
        "read",
        [lambda link: len(link.queue), lambda link: link.queue.stats.dequeued_packets],
        ids=["queued", "dequeued"],
    )
    def test_a_queue_read_first_is_settled(self, read):
        sim = Simulator()
        link = make(Link, sim)
        for seq in range(3):
            link.send(packet(seq))
        # Packet 1 started at TX and nothing has read the link since.
        sim.run(until=1.5 * TX)
        assert link._starts[0] == TX
        assert read(link) == 1


class TestQueueDisciplinesBehindTheLink:
    def test_red_queue_drops_and_order_are_the_reference_s(self):
        outcomes = {}
        for link_class in (ReferenceLink, Link):
            sim = Simulator()
            queue = RedQueue(
                1_000_000,
                lambda sim=sim: sim.now,
                np.random.default_rng(7),
                min_thresh_bytes=2_000,
                max_thresh_bytes=8_000,
                max_probability=0.5,
            )
            link = make(link_class, sim, queue)
            for seq in range(400):  # 3 packets per serialization time
                sim.schedule_at(seq * 0.00033, link.send, packet(seq))
            sim.run()
            audit_link(link, sim.now)
            outcomes[link_class] = (link.dst_node.arrivals, queue.early_drops)
        arrivals, early_drops = outcomes[Link]
        assert early_drops > 0 and len(arrivals) == 400 - early_drops
        assert [seq for _, seq in arrivals] == sorted(seq for _, seq in arrivals)
        assert outcomes[Link] == outcomes[ReferenceLink]


class TestLazilySettledLedger:
    """Committed when serialization starts, read as if counted when it ends."""

    def read(self, link):
        return (
            link.packets_transmitted,
            link.bytes_transmitted,
            link.is_busy,
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
        assert fused["first"] == (0, 0, True)
        assert fused["second"] == (1, 1000, True)
        assert fused["at busy_until"] == (2, 2000, False)
        assert fused["after"] == (2, 2000, False)
        # At the exact instant the reference's answer followed event order;
        # the fused link's does not.
        assert fused["at busy_until, scheduled early"] == fused["at busy_until"]
        assert reference.pop("at busy_until, scheduled early") == (1, 1000, True)
        for label, reading in reference.items():
            assert fused[label] == reading

    def test_every_law_holds_at_every_instant_of_a_burst(self):
        sim = Simulator()
        queue = DropTailQueue(3000, lambda: sim.now)
        upstream, router, egress = pipeline(Link, queue, sim, 8e6, 0.01)
        for seq in range(12):
            sim.schedule_at(seq * 0.0004, upstream.send, make_data_packet(1, "a", "h", seq, 960))
        for tick in range(200):
            at = tick * 0.0001
            for link in (upstream, egress):
                sim.schedule_at(at, audit_link, link, at)
            sim.schedule_at(at, audit_router, router, at)
        sim.run(until=0.0155)
        # Mid-flight: packets past the router, one on the egress wire, none home.
        assert 0 < egress.packets_offered < upstream.packets_transmitted
        assert egress.is_busy and egress.packets_delivered == 0
        sim.run()
        assert upstream.queue.stats.dropped_packets > 0
        assert upstream.packets_transmitted == upstream.packets_delivered > 0
        assert egress.packets_delivered == upstream.packets_delivered == router.packets_forwarded
