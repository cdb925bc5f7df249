"""Accounting regressions: queue conservation, and every counter against
an eager reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcheck.conservation import audit_queue
from repro.simnet.packet import make_ack_packet, make_data_packet
from repro.simnet.queues import DropTailQueue, QueueStats
from repro.simnet.red import RedQueue


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.t


def data(seq=0, payload=1000):
    return make_data_packet(1, "a", "b", seq, payload)


class TestQueueConservation:
    def test_assert_conservation_detects_violation(self):
        q = DropTailQueue(None, FakeClock())
        q.enqueue(data())
        q.stats.enqueued_packets += 1  # simulate lost accounting
        with pytest.raises(AssertionError, match="conservation"):
            audit_queue(q, "q")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["enqueue", "dequeue"]),
                st.integers(min_value=1, max_value=1460),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60)
    def test_conservation_invariant_under_any_op_sequence(self, ops):
        clock = FakeClock()
        q = DropTailQueue(5000, clock)
        seq = 0
        for op, payload in ops:
            clock.t += 0.1
            if op == "enqueue":
                q.enqueue(make_data_packet(1, "a", "b", seq, payload))
                seq += 1
            else:
                q.dequeue()
            audit_queue(q, "q")


QUEUE_STATS_FIELDS = QueueStats.__slots__

#: Bytes the oracle's queues hold: three full segments and change, so a
#: run of DATA packets overflows while ACKs still squeeze in.
ORACLE_CAPACITY = 5000


class EagerQueue:
    """What a queue must report, recomputed the slow way.

    Holds the packets in a plain list and sums sizes instead of keeping a
    running total.
    """

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.held = []
        self.stats = dict.fromkeys(QUEUE_STATS_FIELDS, 0)

    def bytes_held(self):
        return sum(packet.size_bytes for packet in self.held)

    def enqueue(self, packet):
        stats = self.stats
        if (
            self.capacity_bytes is not None
            and self.bytes_held() + packet.size_bytes > self.capacity_bytes
        ):
            stats["dropped_packets"] += 1
            stats["dropped_bytes"] += packet.size_bytes
            return
        self.held.append(packet)
        stats["enqueued_packets"] += 1
        stats["enqueued_bytes"] += packet.size_bytes
        stats["peak_packets"] = max(stats["peak_packets"], len(self.held))

    def dequeue(self):
        if not self.held:
            return None
        packet = self.held.pop(0)
        self.stats["dequeued_packets"] += 1
        self.stats["dequeued_bytes"] += packet.size_bytes
        return packet


def _never_red(capacity_bytes, clock):
    # Thresholds far above the capacity: the average never reaches them,
    # so no early decision is taken and no random number is drawn.
    return RedQueue(
        capacity_bytes, clock, np.random.default_rng(0),
        min_thresh_bytes=1e9, max_thresh_bytes=2e9,
    )


#: (label, factory)
DISCIPLINES = [
    ("drop-tail", DropTailQueue),
    ("red-never-triggered", _never_red),
]

#: Who reads the clock: the queue itself, or its caller (a link hands
#: ``enqueue`` the reading it already took).
CLOCK_MODES = ["own", "supplied"]

QUEUE_OPS = st.lists(
    st.tuples(
        # DATA, ACK, dequeue
        st.sampled_from("eeeaadd"),
        # Equal timestamps are the common case on a busy link.
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        st.integers(min_value=1, max_value=1460),  # DATA payload
    ),
    min_size=1,
    max_size=60,
)


def _references_after(ops):
    """Run ``ops`` through every discipline under both clock modes, each
    checked against its :class:`EagerQueue`; returns the references."""
    return [
        _run_against_eager_reference(label, factory, clock_mode, ops)
        for label, factory in DISCIPLINES
        for clock_mode in CLOCK_MODES
    ]


def _run_against_eager_reference(label, factory, clock_mode, ops):
    clock = FakeClock(t=7.25)  # created mid-simulation
    q = factory(ORACLE_CAPACITY, clock)
    ref = EagerQueue(ORACLE_CAPACITY)
    # The caller's reading, when it supplies one; the queue must then
    # not take its own, and only ``enqueue`` is handed one.
    supplied = clock_mode == "supplied"
    for seq, (op, gap, payload) in enumerate(ops):
        clock.t += gap
        where = f"{label}/{clock_mode} op {seq} {op!r} at {clock.t}"
        now = (clock.t,) if supplied else ()
        reads_before = clock.reads
        if op in "ea":
            if op == "e":
                packet = make_data_packet(1, "a", "b", seq, payload)
            else:
                packet = make_ack_packet(1, "b", "a", seq)
            ref.enqueue(packet)
            accepted = q.enqueue(packet, *now)
            assert accepted == (packet in ref.held), where
        else:
            assert q.dequeue() is ref.dequeue(), where
        if supplied:
            assert clock.reads == reads_before, where
        for field in QUEUE_STATS_FIELDS:
            assert getattr(q.stats, field) == ref.stats[field], f"{where}: {field}"
        assert len(q) == q.packets_queued == len(ref.held), where
        assert q.bytes_queued == ref.bytes_held(), where
        audit_queue(q, "q")
    return ref


class TestEmptyDequeue:
    """Every discipline against :class:`EagerQueue`, every field, every
    op; among them: polling an empty queue changes no counter."""

    @given(QUEUE_OPS)
    @settings(max_examples=80)
    def test_stats_equal_an_eager_reference(self, ops):
        _references_after(ops)

    def test_reference_exercises_every_door(self):
        # The op mix above is only a judge if it reaches drops, empty
        # dequeues and both packet sizes; one fixed sequence that provably
        # does, checked for that rather than trusted.
        ops = (
            [("e", 0.0, 1460)] * 4  # fourth DATA overflows
            + [("a", 0.0, 1), ("d", 0.5, 1), ("d", 0.0, 1)]
            + [("d", 0.25, 1), ("d", 0.0, 1), ("d", 1.0, 1), ("e", 0.0, 100)]
        )
        for reference in _references_after(ops):
            stats = reference.stats
            assert stats["dropped_packets"] == 1
            assert stats["dequeued_packets"] == 4
            assert stats["enqueued_bytes"] == 3 * 1500 + 40 + 140
            assert stats["peak_packets"] == 4
