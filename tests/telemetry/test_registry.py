"""Tests for the metrics registry: metric semantics, snapshots, merging."""

import pytest

from repro import telemetry
from repro.experiments import run_cubic_fixed
from repro.telemetry.registry import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    flat_key,
    histogram_percentile,
    mean,
    merge_snapshots,
)
from repro.transport import CubicParams
from tests.runner.conftest import MINI_PRESET


class TestHelpers:
    def test_mean_of_values(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_uses_default(self):
        assert mean([]) == 0.0

    def test_flat_key_without_labels(self):
        assert flat_key("sim.events", ()) == "sim.events"

    def test_flat_key_with_labels(self):
        key = flat_key("link.drops", (("link", "bottleneck"), ("side", "a")))
        assert key == "link.drops{link=bottleneck,side=a}"


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_value_peak_updates(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.peak == 7.0
        assert gauge.updates == 3


class TestHistogram:
    def test_bounds_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_bounds_must_be_distinct(self):
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])

    def test_bounds_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Histogram([])

    def test_observe_places_in_buckets(self):
        histogram = Histogram([1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 1.5, 3.0, 9.0):
            histogram.observe(value)
        # bounds are inclusive upper edges; 9.0 overflows.
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == 15.0
        assert histogram.min == 0.5
        assert histogram.max == 9.0

    def test_percentile_interpolates(self):
        histogram = Histogram([1.0, 2.0, 3.0, 4.0])
        for value in (0.5, 1.5, 2.5, 3.5):
            histogram.observe(value)
        assert histogram.percentile(0) <= 1.0
        assert 1.0 <= histogram.percentile(50) <= 2.0
        # Clamped to the observed max, not the bucket's upper edge.
        assert histogram.percentile(100) == 3.5

    def test_percentile_never_exceeds_observed_range(self):
        histogram = Histogram([10.0, 100.0])
        histogram.observe(41.0)
        for p in (1, 50, 99, 100):
            assert histogram.percentile(p) == 41.0

    def test_percentile_overflow_bucket_reports_max(self):
        histogram = Histogram([1.0])
        histogram.observe(123.0)
        assert histogram.percentile(99) == 123.0

    def test_percentile_empty_is_zero(self):
        assert Histogram([1.0]).percentile(50) == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).percentile(101)


class TestMetricsRegistry:
    def test_same_identity_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("calls", op="lookup")
        b = registry.counter("calls", op="lookup")
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("calls", op="lookup", node="x")
        b = registry.counter("calls", node="x", op="lookup")
        assert a is b

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        assert registry.counter("calls", op="lookup") is not registry.counter(
            "calls", op="report"
        )

    def test_histogram_bounds_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", [1.0, 2.0])
        with pytest.raises(ValueError):
            registry.histogram("lat", [1.0, 3.0])

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("depth").set(4.0)
        registry.histogram("lat", [1.0]).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot["gauges"]["depth"] == {
            "value": 4.0, "peak": 4.0, "updates": 1,
        }
        histogram = snapshot["histograms"]["lat"]
        assert histogram["bounds"] == [1.0]
        assert histogram["bucket_counts"] == [1, 0]
        assert histogram["min"] == 0.5 and histogram["max"] == 0.5

    def test_snapshot_empty_histogram_minmax_none(self):
        registry = MetricsRegistry()
        registry.histogram("lat", [1.0])
        histogram = registry.snapshot()["histograms"]["lat"]
        assert histogram["min"] is None and histogram["max"] is None

class TestNullRegistry:
    def test_disabled_and_noop(self):
        # Disabled, and nothing reaches it: every metric call in the
        # program sits under ``if tele.enabled`` (tests/test_stored_state.py).
        assert not NullRegistry().enabled
        assert not telemetry.session().enabled
        run_cubic_fixed(CubicParams.default(), MINI_PRESET, seed=0, duration_s=1.0)
        assert telemetry.session().registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


def _worker_snapshot(calls, drops, latencies):
    """Build one 'worker' snapshot with labels overlapping across workers."""
    registry = MetricsRegistry()
    registry.counter("phi.rpc_calls", op="lookup", status="ok").inc(calls)
    registry.counter("link.drops", link="bottleneck").inc(drops)
    registry.gauge("sim.pending_events").set(calls)
    histogram = registry.histogram("runner.point_wall_s", LATENCY_BUCKETS_S)
    for latency in latencies:
        histogram.observe(latency)
    return registry.snapshot()


class TestMergeSnapshots:
    """Satellite: cross-process merge is associative and order-insensitive."""

    def test_counters_add_and_gauges_take_max(self):
        a = _worker_snapshot(3, 1, [0.001])
        b = _worker_snapshot(5, 0, [0.002])
        merged = merge_snapshots([a, b])
        assert merged["counters"]["phi.rpc_calls{op=lookup,status=ok}"] == 8.0
        assert merged["counters"]["link.drops{link=bottleneck}"] == 1.0
        gauge = merged["gauges"]["sim.pending_events"]
        assert gauge["value"] == 5.0 and gauge["updates"] == 2

    def test_histograms_merge_bucket_wise(self):
        a = _worker_snapshot(1, 0, [0.001, 0.010])
        b = _worker_snapshot(1, 0, [0.010, 0.500])
        histogram = merge_snapshots([a, b])["histograms"][
            "runner.point_wall_s"
        ]
        assert histogram["count"] == 4
        assert histogram["min"] == 0.001 and histogram["max"] == 0.5
        assert sum(histogram["bucket_counts"]) == 4

    def test_two_snapshot_merge_is_bit_identical_either_order(self):
        # Overlapping labels, awkward float values: merging A then B must
        # serialize byte-for-byte the same as B then A (IEEE addition of
        # two floats commutes; key order is canonicalized by sorting).
        a = _worker_snapshot(3, 7, [0.0001, 0.123456789, 3.3])
        b = _worker_snapshot(11, 2, [0.1, 0.2, 0.30000000000000004])
        import json

        ab = json.dumps(merge_snapshots([a, b]), sort_keys=True)
        ba = json.dumps(merge_snapshots([b, a]), sort_keys=True)
        assert ab == ba

    def test_merge_is_associative(self):
        a = _worker_snapshot(1, 1, [0.001])
        b = _worker_snapshot(2, 2, [0.002])
        c = _worker_snapshot(3, 3, [0.004])
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    def test_merge_empty_iterable(self):
        assert merge_snapshots([]) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_bounds_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", [1.0]).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", [2.0]).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_empty_histogram_merges_with_live_one(self):
        a = MetricsRegistry()
        a.histogram("h", [1.0])
        b = MetricsRegistry()
        b.histogram("h", [1.0]).observe(0.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["histograms"]["h"]["min"] == 0.5


class TestHistogramPercentileFromSnapshot:
    def test_matches_live_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", LATENCY_BUCKETS_S)
        for latency in (0.001, 0.002, 0.005, 0.010, 0.050):
            histogram.observe(latency)
        snapshot = registry.snapshot()["histograms"]["lat"]
        for p in (10, 50, 90, 99):
            assert histogram_percentile(snapshot, p) == histogram.percentile(p)


class TestSessionPlumbing:
    def test_disabled_by_default(self):
        assert not telemetry.session().enabled

    def test_use_scopes_and_restores(self):
        before = telemetry.session()
        with telemetry.use() as tele:
            assert telemetry.session() is tele
            tele.registry.counter("scoped").inc()
        assert telemetry.session() is before

    def test_use_restores_after_exception(self):
        before = telemetry.session()
        with pytest.raises(RuntimeError):
            with telemetry.use():
                raise RuntimeError("boom")
        assert telemetry.session() is before


class TestSnapshotPercentiles:
    def test_an_empty_histogram_reads_zero(self):
        snapshot = {"bounds": [1.0, 2.0], "bucket_counts": [0, 0, 0], "count": 0,
                    "sum": 0.0, "min": None, "max": None}
        assert histogram_percentile(snapshot, 50) == 0.0

    def test_a_count_past_its_buckets_reads_the_max(self):
        # A hand-edited or damaged manifest: ``telemetry summarize`` reads
        # it as it stands, and the top percentiles are the largest value.
        snapshot = {"bounds": [1.0, 2.0], "bucket_counts": [1, 1, 0], "count": 4,
                    "sum": 3.0, "min": 0.5, "max": 1.5}
        assert histogram_percentile(snapshot, 99) == 1.5
