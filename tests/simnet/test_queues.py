"""Tests for queue disciplines: FIFO order, drop-tail law, accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.packet import make_data_packet
from repro.simnet.queues import DropTailQueue


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def data(seq=0, payload=1000):
    return make_data_packet(1, "a", "b", seq, payload)


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
        with pytest.raises(ValueError):
            DropTailQueue(capacity, FakeClock())

    def test_drop_when_full(self):
        q = DropTailQueue(1500, FakeClock())
        assert q.enqueue(data(payload=1000))  # 1040 bytes
        assert not q.enqueue(data(payload=1000))
        assert q.stats.dropped_packets == 1

    def test_small_packet_can_fit_after_big_drop(self):
        # Drop tail drops only the arriving packet; later smaller ones fit.
        q = DropTailQueue(2000, FakeClock())
        q.enqueue(data(payload=1400))  # 1440
        assert not q.enqueue(data(payload=1400))
        assert q.enqueue(data(payload=400))  # 440 fits in remaining 560


class TestOccupancyIntegral:
    """Peak depth and drop rate; a time series of depth is LinkMonitor's."""

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
