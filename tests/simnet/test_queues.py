"""Tests for queue disciplines: FIFO order, drop-tail law, accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.packet import PacketKind, Packet, make_data_packet
from repro.simnet.queues import DropTailQueue, PriorityQueue


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def data(seq=0, payload=1000, priority=0):
    return make_data_packet(1, "a", "b", seq, payload, priority=priority)


class TestDropTailBasics:
    def test_enqueue_dequeue_fifo_order(self):
        q = DropTailQueue(None, FakeClock())
        packets = [data(seq=i) for i in range(5)]
        for p in packets:
            assert q.enqueue(p)
        out = [q.dequeue() for _ in range(5)]
        assert [p.seq for p in out] == [0, 1, 2, 3, 4]

    def test_dequeue_empty_returns_none(self):
        q = DropTailQueue(None, FakeClock())
        assert q.dequeue() is None

    def test_byte_accounting(self):
        q = DropTailQueue(None, FakeClock())
        p = data(payload=500)
        q.enqueue(p)
        assert q.bytes_queued == p.size_bytes
        q.dequeue()
        assert q.bytes_queued == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(0, FakeClock())

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0])
    def test_capacity_must_be_finite(self, capacity):
        # None is the one way to ask for an unbounded queue.
        for queue_class in (DropTailQueue, PriorityQueue):
            with pytest.raises(ValueError):
                queue_class(capacity, FakeClock())

    def test_drop_when_full(self):
        q = DropTailQueue(1500, FakeClock())
        assert q.enqueue(data(payload=1000))  # 1040 bytes
        assert not q.enqueue(data(payload=1000))
        assert q.stats.dropped_packets == 1

    def test_drop_callback_invoked(self):
        dropped = []
        q = DropTailQueue(1000, FakeClock(), on_drop=dropped.append)
        q.enqueue(data(payload=900))
        q.enqueue(data(seq=99, payload=900))
        assert len(dropped) == 1 and dropped[0].seq == 99

    def test_small_packet_can_fit_after_big_drop(self):
        # Drop tail drops only the arriving packet; later smaller ones fit.
        q = DropTailQueue(2000, FakeClock())
        q.enqueue(data(payload=1400))  # 1440
        assert not q.enqueue(data(payload=1400))
        assert q.enqueue(data(payload=400))  # 440 fits in remaining 560

    def test_flush_empties_queue(self):
        q = DropTailQueue(None, FakeClock())
        for i in range(3):
            q.enqueue(data(seq=i))
        drained = q.flush()
        assert len(drained) == 3
        assert len(q) == 0 and q.bytes_queued == 0

    def test_enqueued_at_stamped(self):
        clock = FakeClock()
        clock.t = 4.2
        q = DropTailQueue(None, clock)
        p = data()
        q.enqueue(p)
        assert p.enqueued_at == 4.2


class TestOccupancyIntegral:
    def test_time_weighted_occupancy(self):
        clock = FakeClock()
        q = DropTailQueue(None, clock)
        p = data(payload=960)  # size 1000
        q.enqueue(p)
        clock.t = 2.0
        q.dequeue()
        # 1000 bytes held for 2 seconds.
        assert q.stats.occupancy_byte_seconds == pytest.approx(2000.0)
        assert q.stats.mean_occupancy_bytes(2.0) == pytest.approx(1000.0)
        assert q.stats.mean_occupancy_packets(2.0) == pytest.approx(1.0)

    def test_peak_tracking(self):
        q = DropTailQueue(None, FakeClock())
        for i in range(4):
            q.enqueue(data(seq=i))
        q.dequeue()
        assert q.stats.peak_packets == 4

    def test_drop_rate(self):
        q = DropTailQueue(1500, FakeClock())
        q.enqueue(data(payload=1000))
        q.enqueue(data(payload=1000))  # dropped
        assert q.stats.drop_rate() == pytest.approx(0.5)

    def test_drop_rate_empty(self):
        assert DropTailQueue(None, FakeClock()).stats.drop_rate() == 0.0


class TestPriorityQueue:
    def test_lower_priority_value_first(self):
        q = PriorityQueue(None, FakeClock())
        q.enqueue(data(seq=0, priority=5))
        q.enqueue(data(seq=1, priority=1))
        q.enqueue(data(seq=2, priority=3))
        assert q.dequeue().seq == 1
        assert q.dequeue().seq == 2
        assert q.dequeue().seq == 0

    def test_fifo_within_priority_class(self):
        q = PriorityQueue(None, FakeClock())
        for i in range(4):
            q.enqueue(data(seq=i, priority=2))
        assert [q.dequeue().seq for _ in range(4)] == [0, 1, 2, 3]

    def test_byte_accounting_preserved(self):
        q = PriorityQueue(None, FakeClock())
        q.enqueue(data(seq=0, priority=2, payload=100))
        q.enqueue(data(seq=1, priority=1, payload=200))
        total = q.bytes_queued
        p = q.dequeue()
        assert q.bytes_queued == total - p.size_bytes


class TestQueueProperties:
    @given(
        st.lists(st.integers(min_value=40, max_value=2000), min_size=1, max_size=60),
        st.integers(min_value=1000, max_value=20000),
    )
    @settings(max_examples=60)
    def test_drop_tail_never_exceeds_capacity(self, sizes, capacity):
        q = DropTailQueue(capacity, FakeClock())
        for i, payload in enumerate(sizes):
            q.enqueue(make_data_packet(1, "a", "b", i, payload))
            assert q.bytes_queued <= capacity
        stats = q.stats
        assert stats.enqueued_packets + stats.dropped_packets == len(sizes)

    @given(st.lists(st.integers(min_value=1, max_value=1460), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_fifo_no_reordering_and_conservation(self, sizes):
        q = DropTailQueue(None, FakeClock())
        for i, payload in enumerate(sizes):
            q.enqueue(make_data_packet(1, "a", "b", i, payload))
        out = []
        while True:
            p = q.dequeue()
            if p is None:
                break
            out.append(p.seq)
        assert out == sorted(out)
        assert len(out) == len(sizes)
        assert q.stats.enqueued_bytes == q.stats.dequeued_bytes
