"""Tests for packet primitives and flow identification."""

import pytest

from repro.simnet.packet import (
    ACK_BYTES,
    HEADER_BYTES,
    MSS_BYTES,
    FlowIdAllocator,
    FlowSpec,
    PacketKind,
    make_ack_packet,
    make_data_packet,
)


class TestPackets:
    def test_data_packet_size_includes_header(self):
        p = make_data_packet(1, "a", "b", 0, 1000)
        assert p.size_bytes == 1000 + HEADER_BYTES
        assert p.kind is PacketKind.DATA

    def test_ack_packet_is_small(self):
        ack = make_ack_packet(1, "b", "a", 1460)
        assert ack.size_bytes == ACK_BYTES
        assert ack.kind is PacketKind.ACK
        assert ack.seq == 1460

    def test_packet_ids_unique(self):
        ids = {make_data_packet(1, "a", "b", i, 10).packet_id for i in range(100)}
        assert len(ids) == 100

    def test_default_mss(self):
        assert MSS_BYTES == 1460


class TestFlowSpec:
    def test_specs_hashable_and_frozen(self):
        spec = FlowSpec(1, "a", 1, "b", 2)
        assert hash(spec)
        with pytest.raises(AttributeError):
            spec.src = "x"


class TestFlowIdAllocator:
    def test_dense_and_unique(self):
        alloc = FlowIdAllocator()
        ids = [alloc.next_id() for _ in range(10)]
        assert ids == list(range(1, 11))

    def test_independent_allocators(self):
        a, b = FlowIdAllocator(), FlowIdAllocator()
        assert a.next_id() == b.next_id() == 1
