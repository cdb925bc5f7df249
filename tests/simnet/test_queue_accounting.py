"""Accounting regressions: flush conservation, mid-simulation queue
creation, and the heap-based priority queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.packet import make_data_packet
from repro.simnet.queues import DropTailQueue, PriorityQueue


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
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
        q.assert_conservation()
        stats = q.stats
        assert stats.enqueued_packets == stats.dequeued_packets + stats.flushed_packets

    def test_flush_empty_queue_is_noop(self):
        q = DropTailQueue(None, FakeClock())
        assert q.flush() == []
        assert q.stats.flushed_packets == 0
        q.assert_conservation()

    def test_assert_conservation_detects_violation(self):
        q = DropTailQueue(None, FakeClock())
        q.enqueue(data())
        q.stats.enqueued_packets += 1  # simulate lost accounting
        with pytest.raises(AssertionError, match="conservation"):
            q.assert_conservation()

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
            q.assert_conservation()


class TestMidSimulationCreation:
    def test_no_phantom_occupancy_from_time_zero(self):
        # The original bug: last_change_time was hard-coded to 0.0, so a
        # queue created at t=30 integrated 30 phantom empty-queue seconds
        # on its first enqueue (and phantom *occupied* time had packets
        # been present), skewing time-averaged occupancy.
        clock = FakeClock(t=30.0)
        q = DropTailQueue(None, clock)
        assert q.created_at == 30.0
        assert q.stats.last_change_time == 30.0
        q.enqueue(data())
        clock.t = 32.0
        q.dequeue()
        # One packet held for exactly 2 seconds, not 32.
        assert q.stats.occupancy_packet_seconds == pytest.approx(2.0)

    def test_mean_occupancy_over_queue_lifetime(self):
        clock = FakeClock(t=30.0)
        q = DropTailQueue(None, clock)
        p = data(payload=960)  # 1000 bytes on the wire
        q.enqueue(p)
        clock.t = 32.0
        q.dequeue()
        lifetime = clock.t - q.created_at
        assert q.stats.mean_occupancy_bytes(lifetime) == pytest.approx(1000.0)

    def test_priority_queue_inherits_creation_time(self):
        clock = FakeClock(t=12.5)
        q = PriorityQueue(None, clock)
        assert q.stats.last_change_time == 12.5


class TestEmptyDequeue:
    """Polling an empty queue is free and changes no integral."""

    @given(
        st.lists(
            st.tuples(st.sampled_from("ed"), st.floats(min_value=0.0, max_value=3.0)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80)
    def test_integrals_equal_an_eager_reference_bit_for_bit(self, ops):
        # The reference integrates on every call, empty or not, the way
        # dequeue() used to; skipping the empty case must not move a bit.
        clock = FakeClock()
        q = DropTailQueue(None, clock)
        ref_bytes = ref_packets = 0.0
        ref_last, held = 0.0, []
        for op, gap in ops:
            clock.t += gap
            elapsed = clock.t - ref_last
            if elapsed > 0:
                ref_bytes += sum(held) * elapsed
                ref_packets += len(held) * elapsed
            ref_last = clock.t
            if op == "e":
                packet = data()
                q.enqueue(packet)
                held.append(packet.size_bytes)
            elif held:
                assert q.dequeue() is not None
                held.pop(0)
            else:
                assert q.dequeue() is None
            assert q.stats.occupancy_byte_seconds == ref_bytes
            assert q.stats.occupancy_packet_seconds == ref_packets
        q.assert_conservation()


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
        q.assert_conservation()

    def test_conservation_with_drops_and_flush(self):
        q = PriorityQueue(2000, FakeClock())
        for i in range(6):
            q.enqueue(data(seq=i, priority=i % 2, payload=900))
        q.dequeue()
        q.flush()
        q.assert_conservation()
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
