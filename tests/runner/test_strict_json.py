"""Regression: infinite ``min_rtt`` must never leak into serialized JSON.

A zero-sample flow carries ``min_rtt = math.inf``.  Python's ``json``
happily emits the non-standard token ``Infinity`` for it, which poisons
cache envelopes and checkpoints for every strict parser (and any other
language).  ``FlowRecord.to_dict`` now maps non-finite ``min_rtt`` to
``null`` and the record codec the cache and checkpoint share encodes with
``allow_nan=False``, so a regression fails loudly at dump time instead of
corrupting artifacts.
"""

import json
import math

from repro.runner.cache import DiskCache
from repro.runner.checkpoint import SweepJournal
from repro.runner.records import FlowRecord, PointResult, rtt_digest
from repro.transport.base import ConnectionStats

from .test_cache_records import make_flow, make_point


def zero_sample_flow():
    stats = ConnectionStats(flow_id=1)
    return FlowRecord.from_stats(stats)


def inf_rtt_point():
    point = make_point()
    return PointResult(
        **{**point.__dict__, "flows": (make_flow(1), zero_sample_flow())}
    )


class TestStrictMinRtt:
    def test_to_dict_maps_inf_to_null(self):
        record = zero_sample_flow()
        assert math.isinf(record.min_rtt)
        data = record.to_dict()
        assert data["min_rtt"] is None
        assert json.dumps(data, allow_nan=False)  # strict JSON, no Infinity

    def test_round_trip_restores_inf(self):
        record = zero_sample_flow()
        clone = FlowRecord.from_dict(
            json.loads(json.dumps(record.to_dict(), allow_nan=False))
        )
        assert clone == record
        assert math.isinf(clone.min_rtt)
        assert (clone.rtt_count, clone.rtt_digest) == (0, rtt_digest([]))

    def test_finite_min_rtt_unaffected(self):
        record = make_flow()
        assert record.to_dict()["min_rtt"] == record.min_rtt

    def test_point_with_zero_sample_flow_is_strict_json(self):
        payload = json.dumps(inf_rtt_point().to_dict(), allow_nan=False)
        assert "Infinity" not in payload

    def test_disk_cache_round_trips_zero_sample_flow(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        point = inf_rtt_point()
        cache.put(point)
        clone = cache.get(point.key)
        assert clone == point
        assert math.isinf(clone.flows[1].min_rtt)
        # The on-disk envelope is standard JSON (no Infinity token).
        (envelope,) = tmp_path.rglob("*.json")
        assert "Infinity" not in envelope.read_text()

    def test_journal_records_zero_sample_flow(self, tmp_path):
        path = tmp_path / "sweep.journal"
        point = inf_rtt_point()
        with SweepJournal(str(path)) as journal:
            journal.append(point)
        assert "Infinity" not in path.read_text()
        restored = SweepJournal(str(path)).load()
        assert restored[point.key] == point
