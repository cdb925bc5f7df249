"""Result records and cache backends: exact round-trips, hit/miss stats."""

import hashlib
import json
import math
import os

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.metrics.summary import RunMetrics
from repro.runner.cache import DiskCache, MemoryCache, NullCache
from repro.runner.hashing import canonical_json, content_hash
from repro.runner.records import (
    FlowRecord,
    PointResult,
    decode_record,
    encode_record,
    flow_records,
    rtt_digest,
)
from repro.transport.base import ConnectionStats
from repro.transport.cubic import CubicParams


def make_flow(flow_id=7):
    return FlowRecord(
        flow_id=flow_id,
        start_time=0.125,
        end_time=3.0000000000000004,  # deliberately non-round float
        bytes_goodput=123456,
        bytes_sent=130000,
        packets_sent=125,
        retransmits=3,
        timeouts=1,
        fast_retransmits=2,
        rtt_count=3,
        rtt_digest=rtt_digest((0.1501, 0.1502000000000003, 0.163)),
        min_rtt=0.1501,
        completed=True,
    )


def make_point(key="k" * 64, wall=1.0):
    return PointResult(
        key=key,
        params=CubicParams(window_init=4.0, initial_ssthresh=16.0, beta=0.3),
        seed=5,
        run_index=2,
        metrics=RunMetrics(
            throughput_mbps=11.7320508,
            queueing_delay_ms=42.1,
            loss_rate=0.0123,
            connections=9,
            total_bytes=999_999,
            mean_rtt_ms=151.3,
            mean_utilization=0.87,
        ),
        flows=(make_flow(1), make_flow(2)),
        bottleneck_drop_rate=0.0123,
        mean_utilization=0.87,
        duration_s=60.0,
        events_processed=123_456,
        wall_seconds=wall,
    )


class TestFlowRecord:
    def test_from_stats_freezes_samples(self):
        stats = ConnectionStats(flow_id=1)
        stats.rtt_samples.extend([0.1, 0.2])
        stats.bytes_goodput = 100
        record = FlowRecord.from_stats(stats)
        stats.rtt_samples.append(0.3)  # later mutation must not leak in
        assert (record.rtt_count, record.rtt_digest) == (2, rtt_digest([0.1, 0.2]))

    def test_digest_is_sha256_of_little_endian_doubles(self):
        assert rtt_digest([]) == hashlib.sha256(b"").hexdigest()
        one_then_half = bytes.fromhex("000000000000f03f" "000000000000e03f")
        assert rtt_digest([1.0, 0.5]) == hashlib.sha256(one_then_half).hexdigest()

    def test_samples_differing_in_one_bit_or_in_order_differ(self):
        def record(samples):
            stats = ConnectionStats(flow_id=1)
            stats.rtt_samples.extend(samples)
            return FlowRecord.from_stats(stats)

        base = record([0.1, 0.2, 0.3])
        assert record([0.1, 0.2, 0.3]) == base
        assert record([0.1, 0.3, 0.2]) != base
        assert record([0.1, math.nextafter(0.2, 1.0), 0.3]) != base
        assert record([0.1, 0.2]) != base

    def test_json_round_trip_bit_identical(self):
        record = make_flow()
        clone = FlowRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record

    def test_flow_records_flattens_in_sender_order(self):
        a, b, c = ConnectionStats(1), ConnectionStats(2), ConnectionStats(3)
        records = flow_records([[a], [b, c]])
        assert [r.flow_id for r in records] == [1, 2, 3]

    def test_infinite_min_rtt_survives_round_trip(self):
        stats = ConnectionStats(flow_id=1)
        record = FlowRecord.from_stats(stats)
        assert math.isinf(record.min_rtt)
        clone = FlowRecord.from_dict(record.to_dict())
        assert math.isinf(clone.min_rtt)


class TestPointResult:
    def test_json_round_trip_bit_identical(self):
        point = make_point()
        clone = PointResult.from_dict(json.loads(json.dumps(point.to_dict())))
        assert clone == point

    def test_identical_to_ignores_wall_seconds(self):
        assert make_point(wall=1.0).identical_to(make_point(wall=9.0))

    def test_identical_to_detects_flow_difference(self):
        point = make_point()
        other = PointResult(
            **{
                **point.__dict__,
                "flows": (make_flow(1),),
            }
        )
        assert not point.identical_to(other)


def parent_layout(point):
    """A record as stored before the one codec: ``json.dumps`` defaults."""
    payload = point.to_dict()
    return json.dumps({"checksum": content_hash(payload), "result": payload})


class TestStoredRecord:
    def test_checksum_is_content_hash_of_stored_body(self):
        point = make_point()
        payload = point.to_dict()
        assert encode_record(point) == (
            '{"checksum":"' + content_hash(payload) + '","result":'
            + canonical_json(payload) + "}"
        )

    def test_round_trip_both_layouts(self):
        point = make_point()
        assert decode_record(encode_record(point)) == point
        assert decode_record(parent_layout(point)) == point

    def test_stored_body_tamper_is_damage(self):
        text = encode_record(make_point())
        assert decode_record(text.replace('"seed":5', '"seed":6')) is None

    def test_every_truncation_is_damage(self):
        point = make_point()
        for text in (encode_record(point), parent_layout(point)):
            for end in range(len(text)):
                assert decode_record(text[:end]) is None, end

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        parent=st.booleans(),
        char=st.one_of(
            st.sampled_from('0123456789.eE+-" ,:{}[]\n\tnulltruefalse'),
            st.characters(max_codepoint=255),
        ),
    )
    def test_one_substituted_character_is_damage_or_harmless(self, data, parent, char):
        point = make_point()
        text = parent_layout(point) if parent else encode_record(point)
        at = data.draw(st.integers(0, len(text) - 1))
        assume(text[at] != char)
        decoded = decode_record(text[:at] + char + text[at + 1:])
        assert decoded is None or decoded == point


class TestMemoryCache:
    def test_roundtrip_and_stats(self):
        cache = MemoryCache()
        point = make_point()
        assert cache.get(point.key) is None
        cache.put(point)
        assert cache.get(point.key) == point
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1
        assert len(cache) == 1


class TestDiskCache:
    def test_roundtrip_persists_across_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = DiskCache(directory)
        point = make_point()
        cache.put(point)
        fresh = DiskCache(directory)
        assert fresh.get(point.key) == point
        assert len(fresh) == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert cache.get("deadbeef") is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        point = make_point()
        cache.put(point)
        with open(os.path.join(str(tmp_path), f"{point.key}.json"), "w") as handle:
            handle.write("{not json")
        assert cache.get(point.key) is None

    def test_parent_layout_entry_is_served(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        point = make_point()
        with open(os.path.join(str(tmp_path), f"{point.key}.json"), "w") as handle:
            handle.write(parent_layout(point))
        assert cache.get(point.key) == point
        assert cache.stats.hits == 1
        assert cache.stats.corrupt_evictions == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put(make_point())
        leftovers = [n for n in os.listdir(str(tmp_path)) if n.startswith(".tmp-")]
        assert leftovers == []


class TestNullCache:
    def test_never_stores(self):
        cache = NullCache()
        point = make_point()
        cache.put(point)
        assert cache.get(point.key) is None
        assert len(cache) == 0
