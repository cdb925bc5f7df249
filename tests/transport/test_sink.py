"""Tests for the TCP sink and byte-interval reassembly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.simnet.packet import make_data_packet
from repro.transport.sink import ByteIntervalSet, TcpSink


class TestByteIntervalSet:
    def test_contiguous_from_origin(self):
        s = ByteIntervalSet()
        s.add(0, 100)
        s.add(100, 200)
        assert s.contiguous_from(0) == 200

    def test_hole_blocks_contiguity(self):
        s = ByteIntervalSet()
        s.add(0, 100)
        s.add(200, 300)
        assert s.contiguous_from(0) == 100
        s.add(100, 200)
        assert s.contiguous_from(0) == 300

    def test_overlapping_merge(self):
        s = ByteIntervalSet()
        s.add(0, 150)
        s.add(100, 250)
        assert s.total_bytes == 250
        assert len(s.intervals()) == 1

    def test_duplicate_adds_idempotent(self):
        s = ByteIntervalSet()
        s.add(0, 100)
        s.add(0, 100)
        assert s.total_bytes == 100

    def test_empty_interval_ignored(self):
        s = ByteIntervalSet()
        s.add(10, 10)
        s.add(10, 5)
        assert s.total_bytes == 0

    def test_out_of_order_inserts(self):
        s = ByteIntervalSet()
        s.add(200, 300)
        s.add(0, 100)
        s.add(100, 200)
        assert s.contiguous_from(0) == 300
        assert len(s.intervals()) == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80)
    def test_matches_reference_set_semantics(self, chunks):
        s = ByteIntervalSet()
        reference = set()
        for i, (start, length) in enumerate(chunks):
            if i % 3 == 2 and s.intervals():
                start = s.intervals()[-1][1]  # in order: extends the top range
            gained = s.add(start, start + length)
            assert gained == len(set(range(start, start + length)) - reference)
            reference.update(range(start, start + length))
        assert s.total_bytes == len(reference)
        runs = []
        for byte in sorted(reference):
            if runs and runs[-1][1] == byte:
                runs[-1][1] = byte + 1
            else:
                runs.append([byte, byte + 1])
        assert s.intervals() == [tuple(run) for run in runs]
        for origin in range(0, max(reference) + 3):
            expected_contig = origin
            while expected_contig in reference:
                expected_contig += 1
            assert s.contiguous_from(origin) == expected_contig

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=1, max_value=30),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_fragments_disjoint_and_sorted(self, chunks):
        s = ByteIntervalSet()
        for start, length in chunks:
            s.add(start, start + length)
        intervals = s._intervals
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2, "intervals must stay disjoint and sorted"

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=120)
    def test_running_total_and_in_place_edits_match_a_reference_set(self, ops):
        # add() reports the newly covered bytes and prune_below() trims
        # in place; total_bytes is a running counter, never a re-sum.
        s = ByteIntervalSet()
        reference = set()
        for is_add, start, length in ops:
            if is_add:
                fresh = set(range(start, start + length)) - reference
                assert s.add(start, start + length) == len(fresh)
                reference |= fresh
            else:
                s.prune_below(start)
                reference = {byte for byte in reference if byte >= start}
            assert s.total_bytes == len(reference)
            intervals = s.intervals()
            assert sum(hi - lo for lo, hi in intervals) == len(reference)
            assert all(lo < hi for lo, hi in intervals)
            for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
                assert hi1 < lo2
            for byte in range(0, 85):
                assert s.covers(byte) == (byte in reference)


class TestTcpSink:
    def _make(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, "client", 1, top.receivers[0].name, 443)
        sink = TcpSink(sim, top.receivers[0], spec)
        return sim, top, spec, sink

    def test_in_order_cumulative_acks(self):
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)  # capture outbound
        for i in range(3):
            sink.handle_packet(make_data_packet(1, "client", spec.dst, i * 100, 100))
        assert [a.seq for a in acks] == [100, 200, 300]

    def test_in_order_stream_keeps_one_interval_and_reports_no_sack(self):
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)
        for i in range(50):
            sink.handle_packet(make_data_packet(1, "client", spec.dst, i * 100, 100))
        assert sink.received.intervals() == [(0, 5000)]
        assert sink.received.total_bytes == sink.rcv_nxt == 5000
        assert all(a.sack_blocks == () for a in acks)

    def test_first_segment_lost_is_still_reported_as_a_sack_block(self):
        # One interval, but not in order: total_bytes != rcv_nxt.
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 100, 100))
        assert acks[-1].seq == 0
        assert acks[-1].sack_blocks == ((100, 200),)
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 0, 100))
        assert acks[-1].seq == 200
        assert acks[-1].sack_blocks == ()

    def test_out_of_order_generates_dup_acks(self):
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 0, 100))
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 200, 100))
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 300, 100))
        assert [a.seq for a in acks] == [100, 100, 100]
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 100, 100))
        assert acks[-1].seq == 400

    def test_echo_timestamp_propagated(self):
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)
        packet = make_data_packet(1, "client", spec.dst, 0, 100)
        packet.sent_at = 1.25
        sink.handle_packet(packet)
        assert acks[0].echo_timestamp == 1.25

    def test_retransmit_flag_propagated(self):
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)
        packet = make_data_packet(1, "client", spec.dst, 0, 100)
        packet.is_retransmit = True
        sink.handle_packet(packet)
        assert acks[0].is_retransmit

    def test_duplicate_data_counted(self):
        sim, top, spec, sink = self._make()
        acks = []
        top.receivers[0].send = lambda p: acks.append(p)
        packet = make_data_packet(1, "client", spec.dst, 0, 100)
        sink.handle_packet(packet)
        sink.handle_packet(make_data_packet(1, "client", spec.dst, 0, 100))
        assert sink.received.total_bytes == 100
        assert [a.seq for a in acks] == [100, 100]

    def test_close_unregisters(self):
        sim, top, spec, sink = self._make()
        sink.close()
        # Re-registering the same flow id must now succeed.
        TcpSink(sim, top.receivers[0], spec)
