"""Accounting regressions: flush conservation, every counter against an
eager reference, and the heap-based priority queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcheck.conservation import audit_queue
from repro.simnet.packet import make_ack_packet, make_data_packet
from repro.simnet.queues import DropTailQueue, PriorityQueue, QueueStats
from repro.simnet.red import RedQueue


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.t


def data(seq=0, payload=1000, priority=0):
    return make_data_packet(1, "a", "b", seq, payload, priority=priority)


class TestFlushAccounting:
    def test_flush_credits_flushed_counters(self):
        q = DropTailQueue(None, FakeClock())
        total_bytes = 0
        for i in range(4):
            packet = data(seq=i)
            total_bytes += packet.size_bytes
            q.enqueue(packet)
        drained = q.flush()
        assert len(drained) == 4
        assert q.stats.flushed_packets == 4
        assert q.stats.flushed_bytes == total_bytes

    def test_conservation_after_flush(self):
        # The original bug: flush zeroed occupancy without crediting the
        # drained packets anywhere, so enqueued != dequeued + queued.
        q = DropTailQueue(None, FakeClock())
        for i in range(5):
            q.enqueue(data(seq=i))
        q.dequeue()
        q.flush()
        audit_queue(q, "q")
        stats = q.stats
        assert stats.enqueued_packets == stats.dequeued_packets + stats.flushed_packets

    def test_flush_empty_queue_is_noop(self):
        q = DropTailQueue(None, FakeClock())
        assert q.flush() == []
        assert q.stats.flushed_packets == 0
        audit_queue(q, "q")

    def test_assert_conservation_detects_violation(self):
        q = DropTailQueue(None, FakeClock())
        q.enqueue(data())
        q.stats.enqueued_packets += 1  # simulate lost accounting
        with pytest.raises(AssertionError, match="conservation"):
            audit_queue(q, "q")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["enqueue", "dequeue", "flush"]),
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
            elif op == "dequeue":
                q.dequeue()
            else:
                q.flush()
            audit_queue(q, "q")


QUEUE_STATS_FIELDS = QueueStats.__slots__

#: Bytes the oracle's queues hold: three full segments and change, so a
#: run of DATA packets overflows while ACKs still squeeze in.
ORACLE_CAPACITY = 5000


class EagerQueue:
    """What a queue must report, recomputed the slow way.

    Holds the packets in a plain list, sums sizes instead of keeping a
    running total and picks the next packet by a stable sort.
    """

    def __init__(self, capacity_bytes, by_priority):
        self.capacity_bytes = capacity_bytes
        self.by_priority = by_priority
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
        if self.by_priority:
            packet = min(self.held, key=lambda p: p.priority)  # first of the lowest
        else:
            packet = self.held[0]
        self.held.remove(packet)
        self.stats["dequeued_packets"] += 1
        self.stats["dequeued_bytes"] += packet.size_bytes
        return packet

    def flush(self):
        if self.by_priority:
            drained = sorted(self.held, key=lambda p: p.priority)  # stable
        else:
            drained = list(self.held)
        self.held.clear()
        self.stats["flushed_packets"] += len(drained)
        self.stats["flushed_bytes"] += sum(p.size_bytes for p in drained)
        return drained


def _never_red(capacity_bytes, clock):
    # Thresholds far above the capacity: the average never reaches them,
    # so no early decision is taken and no random number is drawn.
    return RedQueue(
        capacity_bytes, clock, np.random.default_rng(0),
        min_thresh_bytes=1e9, max_thresh_bytes=2e9,
    )


#: (label, factory, dequeues by priority)
DISCIPLINES = [
    ("drop-tail", DropTailQueue, False),
    ("priority", PriorityQueue, True),
    ("red-never-triggered", _never_red, False),
]

#: Who reads the clock: the queue itself, or its caller (a link hands
#: ``enqueue`` the reading it already took).
CLOCK_MODES = ["own", "supplied"]

QUEUE_OPS = st.lists(
    st.tuples(
        # DATA, ACK, dequeue, flush
        st.sampled_from("eeeaaddf"),
        # Equal timestamps are the common case on a busy link.
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        st.integers(min_value=1, max_value=1460),  # DATA payload
        st.integers(min_value=0, max_value=2),  # priority
    ),
    min_size=1,
    max_size=60,
)


def _references_after(ops):
    """Run ``ops`` through every discipline under both clock modes, each
    checked against its :class:`EagerQueue`; returns the references."""
    return [
        _run_against_eager_reference(label, factory, by_priority, clock_mode, ops)
        for label, factory, by_priority in DISCIPLINES
        for clock_mode in CLOCK_MODES
    ]


def _run_against_eager_reference(label, factory, by_priority, clock_mode, ops):
    clock = FakeClock(t=7.25)  # created mid-simulation
    q = factory(ORACLE_CAPACITY, clock)
    ref = EagerQueue(ORACLE_CAPACITY, by_priority)
    # The caller's reading, when it supplies one; the queue must then
    # not take its own, and only ``enqueue`` is handed one.
    supplied = clock_mode == "supplied"
    for seq, (op, gap, payload, priority) in enumerate(ops):
        clock.t += gap
        where = f"{label}/{clock_mode} op {seq} {op!r} at {clock.t}"
        now = (clock.t,) if supplied else ()
        reads_before = clock.reads
        if op in "ea":
            if op == "e":
                packet = make_data_packet(1, "a", "b", seq, payload, priority=priority)
            else:
                packet = make_ack_packet(1, "b", "a", seq)
                packet.priority = priority
            ref.enqueue(packet)
            accepted = q.enqueue(packet, *now)
            assert accepted == (packet in ref.held), where
        elif op == "d":
            assert q.dequeue() is ref.dequeue(), where
        else:
            got, want = q.flush(), ref.flush()
            assert len(got) == len(want) and all(
                a is b for a, b in zip(got, want)
            ), where
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
        # The op mix above is only a judge if it reaches drops, flushes,
        # empty dequeues and both packet sizes; one fixed sequence that
        # provably does, checked for that rather than trusted.
        ops = (
            [("e", 0.0, 1460, 1)] * 4  # fourth DATA overflows
            + [("a", 0.0, 1, 0), ("d", 0.5, 1, 0), ("d", 0.0, 1, 0)]
            + [("f", 0.25, 1, 0), ("d", 1.0, 1, 0), ("e", 0.0, 100, 2)]
        )
        for reference in _references_after(ops):
            stats = reference.stats
            assert stats["dropped_packets"] == 1
            assert stats["flushed_packets"] == 2
            assert stats["dequeued_packets"] == 2
            assert stats["enqueued_bytes"] == 3 * 1500 + 40 + 140
            assert stats["peak_packets"] == 4


class TestHeapPriorityQueue:
    def test_strict_priority_order(self):
        q = PriorityQueue(None, FakeClock())
        q.enqueue(data(seq=0, priority=5))
        q.enqueue(data(seq=1, priority=1))
        q.enqueue(data(seq=2, priority=3))
        assert [q.dequeue().seq for _ in range(3)] == [1, 2, 0]

    def test_fifo_within_priority_class_at_scale(self):
        q = PriorityQueue(None, FakeClock())
        for i in range(300):
            q.enqueue(data(seq=i, priority=i % 3, payload=100))
        out = [q.dequeue() for _ in range(300)]
        # Strictly sorted by (priority, arrival seq): a stable reference.
        expected = sorted(range(300), key=lambda i: (i % 3, i))
        assert [p.seq for p in out] == expected

    def test_flush_drains_in_dequeue_order(self):
        q = PriorityQueue(None, FakeClock())
        q.enqueue(data(seq=0, priority=2))
        q.enqueue(data(seq=1, priority=0))
        q.enqueue(data(seq=2, priority=2))
        q.enqueue(data(seq=3, priority=1))
        assert [p.seq for p in q.flush()] == [1, 3, 0, 2]
        assert len(q) == 0 and q.bytes_queued == 0
        audit_queue(q, "q")

    def test_conservation_with_drops_and_flush(self):
        q = PriorityQueue(2000, FakeClock())
        for i in range(6):
            q.enqueue(data(seq=i, priority=i % 2, payload=900))
        q.dequeue()
        q.flush()
        audit_queue(q, "q")
        assert q.stats.dropped_packets > 0  # capacity forced drops

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=40, max_value=1460),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60)
    def test_heap_matches_stable_sort_reference(self, arrivals):
        q = PriorityQueue(None, FakeClock())
        for i, (priority, payload) in enumerate(arrivals):
            q.enqueue(make_data_packet(1, "a", "b", i, payload, priority=priority))
        out = []
        while True:
            packet = q.dequeue()
            if packet is None:
                break
            out.append(packet.seq)
        expected = [
            i
            for i, _ in sorted(
                enumerate(arrivals), key=lambda item: (item[1][0], item[0])
            )
        ]
        assert out == expected
