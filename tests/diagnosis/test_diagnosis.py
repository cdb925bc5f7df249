"""Tests for the diagnosis pipeline: baseline, telemetry, detection,
localization (the Figure 5 machinery)."""

from functools import lru_cache

import numpy as np
import pytest

from repro.diagnosis import (
    BIN_MINUTES,
    BINS_PER_DAY,
    OutageSpec,
    SeasonalBaseline,
    TelemetryGenerator,
    UnreachabilityDetector,
    group_dips,
    localize,
    slice_keys,
)
from repro.diagnosis.detector import DetectedDip
from repro.diagnosis.events import ASES, METROS


class TestSeasonalBaseline:
    def _flat_history(self, value=100.0, periods=3, period=24):
        return [value] * (period * periods)

    def test_requires_enough_history(self):
        baseline = SeasonalBaseline(period_bins=24)
        with pytest.raises(ValueError):
            baseline.fit([100.0] * 24)  # only one period

    def test_validation(self):
        with pytest.raises(ValueError):
            SeasonalBaseline(period_bins=0)

    def test_flat_series_expected(self):
        baseline = SeasonalBaseline(24).fit(self._flat_history())
        assert baseline.expected(5).expected == 100.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SeasonalBaseline(24).expected(0)

    def test_diurnal_pattern_learned(self):
        period = 24
        one_day = [100.0 + 50.0 * np.sin(2 * np.pi * i / period) for i in range(period)]
        baseline = SeasonalBaseline(period).fit(one_day * 3)
        assert baseline.expected(6).expected > baseline.expected(18).expected

    def test_zscore_sign(self):
        baseline = SeasonalBaseline(24).fit(self._flat_history())
        assert baseline.zscore(0, 50.0) < 0
        assert baseline.zscore(0, 150.0) > 0

    def test_zscores_vectorized(self):
        baseline = SeasonalBaseline(24).fit(self._flat_history())
        scores = baseline.zscores(0, [100.0, 100.0, 10.0])
        assert scores[0] == pytest.approx(0.0)
        assert scores[2] < -5

    def test_noise_robustness(self):
        rng = np.random.default_rng(0)
        history = rng.poisson(1000, size=24 * 5).astype(float)
        baseline = SeasonalBaseline(24).fit(history)
        scores = baseline.zscores(0, rng.poisson(1000, size=24).astype(float))
        assert np.all(np.abs(scores) < 5)


class TestTelemetry:
    def test_slice_keys_cartesian(self):
        keys = slice_keys()
        assert len(keys) == 4 * 4 * 2
        assert ("isp-a", "nyc", "voip") in keys

    def test_outage_spec_validation(self):
        with pytest.raises(ValueError):
            OutageSpec(start_bin=0, duration_bins=0, severity=0.5)
        with pytest.raises(ValueError):
            OutageSpec(start_bin=0, duration_bins=1, severity=0.0)

    def test_outage_affects_matching_slice_in_window(self):
        outage = OutageSpec(10, 5, 0.9, asn="isp-a", metro="nyc")
        assert outage.affects(("isp-a", "nyc", "voip"), 12)
        assert not outage.affects(("isp-a", "nyc", "voip"), 9)
        assert not outage.affects(("isp-a", "nyc", "voip"), 15)
        assert not outage.affects(("isp-b", "nyc", "voip"), 12)
        assert not outage.affects(("isp-a", "lon", "voip"), 12)

    def test_wildcard_dimensions(self):
        outage = OutageSpec(0, 5, 1.0, metro="nyc")
        assert outage.affects(("isp-a", "nyc", "voip"), 0)
        assert outage.affects(("isp-d", "nyc", "storage"), 0)

    def test_generated_series_have_requested_length(self):
        gen = TelemetryGenerator(np.random.default_rng(0))
        series = gen.generate(100)
        assert all(len(v) == 100 for v in series.values())

    def test_outage_suppresses_volume(self):
        outage = OutageSpec(50, 10, 1.0, asn="isp-a", metro="nyc")
        gen = TelemetryGenerator(np.random.default_rng(0), [outage])
        series = gen.generate(70)
        hit = series[("isp-a", "nyc", "voip")]
        assert np.all(hit[50:60] == 0)
        assert np.mean(hit[:50]) > 100

    def test_invalid_bins(self):
        gen = TelemetryGenerator(np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen.generate(0)


@lru_cache(maxsize=None)  # one detection run per outage, shared by the tests
def detect_outage(severity=0.9, duration_bins=24, seed=7):
    train = 2 * BINS_PER_DAY
    outage = OutageSpec(
        start_bin=train + 100,
        duration_bins=duration_bins,
        severity=severity,
        asn="isp-a",
        metro="nyc",
    )
    gen = TelemetryGenerator(np.random.default_rng(seed), [outage])
    series = gen.generate(train + BINS_PER_DAY)
    detector = UnreachabilityDetector(BINS_PER_DAY)
    return outage, train, detector.detect(series, train)


class TestDetector:
    def test_detects_injected_outage(self):
        outage, train, dips = detect_outage()
        affected = {d.key for d in dips}
        assert ("isp-a", "nyc", "voip") in affected
        assert ("isp-a", "nyc", "storage") in affected

    def test_detection_window_overlaps_outage(self):
        outage, train, dips = detect_outage()
        for dip in dips:
            if dip.key[:2] == ("isp-a", "nyc"):
                assert dip.start_bin >= outage.start_bin - 2
                assert dip.end_bin <= outage.end_bin + 2

    def test_no_false_positives_without_outage(self):
        train = 2 * BINS_PER_DAY
        gen = TelemetryGenerator(np.random.default_rng(3))
        series = gen.generate(train + BINS_PER_DAY)
        detector = UnreachabilityDetector(BINS_PER_DAY)
        assert detector.detect(series, train) == []

    def test_short_series_rejected(self):
        detector = UnreachabilityDetector(BINS_PER_DAY)
        series = {("a", "b", "c"): np.ones(10)}
        with pytest.raises(ValueError):
            detector.detect(series, train_bins=10)

    def test_drop_fraction_estimated(self):
        outage, train, dips = detect_outage(severity=0.9)
        target = [d for d in dips if d.key[:2] == ("isp-a", "nyc")]
        assert target
        for dip in target:
            assert dip.mean_drop_fraction == pytest.approx(0.9, abs=0.15)


class TestLocalization:
    def _dip(self, key, start=10, end=20):
        return DetectedDip(
            key=key, start_bin=start, end_bin=end, min_zscore=-8.0,
            mean_drop_fraction=0.9,
        )

    def test_groups_overlapping_dips(self):
        dips = [
            self._dip(("a", "x", "s1")),
            self._dip(("a", "x", "s2"), start=12, end=22),
            self._dip(("b", "y", "s1"), start=500, end=510),
        ]
        groups = group_dips(dips)
        assert len(groups) == 2

    def test_localizes_to_as_and_metro(self):
        dips = [
            self._dip(("isp-a", "nyc", "voip")),
            self._dip(("isp-a", "nyc", "storage")),
        ]
        (event,) = localize(dips, slice_keys())
        assert event.asn == "isp-a"
        assert event.metro == "nyc"
        assert event.service is None
        assert "asn=isp-a" in event.describe()
        assert "metro=nyc" in event.describe()

    def test_service_specific_event(self):
        # The paper's motivating example: VoIP degraded, file hosting fine.
        dips = [self._dip((asn, metro, "voip")) for asn in ASES for metro in METROS]
        (event,) = localize(dips, slice_keys())
        assert event.service == "voip"
        assert event.asn is None and event.metro is None

    def test_global_event(self):
        dips = [self._dip(key) for key in slice_keys()]
        (event,) = localize(dips, slice_keys())
        assert event.describe() == "global"

    def test_empty_group_rejected(self):
        from repro.diagnosis import localize_group

        with pytest.raises(ValueError):
            localize_group([], [])

    def test_figure5_end_to_end(self):
        # Full pipeline: 2-hour ISP+metro outage detected and localized.
        train = 2 * BINS_PER_DAY
        bins_2h = 120 // BIN_MINUTES
        outage = OutageSpec(
            start_bin=train + 60,
            duration_bins=bins_2h,
            severity=0.95,
            asn="isp-b",
            metro="blr",
        )
        gen = TelemetryGenerator(np.random.default_rng(11), [outage])
        series = gen.generate(train + BINS_PER_DAY)
        detector = UnreachabilityDetector(BINS_PER_DAY)
        dips = detector.detect(series, train)
        events = localize(dips, slice_keys())
        assert len(events) == 1
        event = events[0]
        assert event.asn == "isp-b" and event.metro == "blr"
        assert event.duration_bins == pytest.approx(bins_2h, abs=2)
