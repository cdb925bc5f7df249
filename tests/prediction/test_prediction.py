"""Tests for performance prediction: store, E-model, predictor."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction import (
    ACCEPTABLE_MOS,
    MOS_MAX,
    MOS_MIN,
    Confidence,
    ObservationStore,
    PerfObservation,
    PerformancePredictor,
    e_model_mos,
)


def obs(location=("isp-a", "nyc"), t=0.0, mbps=10.0, rtt=50.0, loss=0.0):
    return PerfObservation(
        location=location, timestamp=t, throughput_mbps=mbps, rtt_ms=rtt,
        loss_rate=loss,
    )


class TestObservationStore:
    def test_record_and_recent(self):
        store = ObservationStore()
        store.record(obs(t=1.0))
        store.record(obs(t=2.0))
        recent = store.recent(("isp-a", "nyc"))
        assert len(recent) == 2
        assert recent[-1].timestamp == 2.0

    def test_since_filter(self):
        store = ObservationStore()
        for t in (1.0, 2.0, 3.0):
            store.record(obs(t=t))
        assert len(store.recent(("isp-a", "nyc"), since=2.0)) == 2

    def test_limit(self):
        store = ObservationStore()
        for t in range(10):
            store.record(obs(t=float(t)))
        assert len(store.recent(("isp-a", "nyc"), limit=3)) == 3

    def test_bounded_history(self):
        store = ObservationStore(max_per_location=5)
        for t in range(10):
            store.record(obs(t=float(t)))
        recent = store.recent(("isp-a", "nyc"))
        assert len(recent) == 5
        assert recent[0].timestamp == 5.0

    def test_locations_and_counts(self):
        store = ObservationStore()
        store.record(obs())
        store.record(obs(location=("isp-b", "lon")))
        assert set(store.locations()) == {("isp-a", "nyc"), ("isp-b", "lon")}
        assert store.sample_count(("isp-b", "lon")) == 1
        assert store.sample_count(("isp-z", "zzz")) == 0

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            obs(mbps=-1)
        with pytest.raises(ValueError):
            obs(rtt=-1)
        with pytest.raises(ValueError):
            obs(loss=2.0)

    def test_store_validation(self):
        with pytest.raises(ValueError):
            ObservationStore(max_per_location=0)


class TestEModel:
    def test_clean_path_is_good(self):
        assert e_model_mos(rtt_ms=40.0, loss_rate=0.0) > 4.0

    def test_heavy_loss_is_bad(self):
        assert e_model_mos(rtt_ms=40.0, loss_rate=0.2) < 2.5

    def test_long_delay_degrades(self):
        assert e_model_mos(600.0, 0.0) < e_model_mos(50.0, 0.0)

    def test_bounds(self):
        assert MOS_MIN <= e_model_mos(0.0, 0.0) <= MOS_MAX
        assert e_model_mos(10_000.0, 1.0) == MOS_MIN

    def test_validation(self):
        with pytest.raises(ValueError):
            e_model_mos(-1.0, 0.0)
        with pytest.raises(ValueError):
            e_model_mos(1.0, 2.0)

    @pytest.mark.parametrize(
        "field, rtt_ms, loss_rate",
        [("rtt_ms", math.nan, 0.0), ("loss_rate", 40.0, math.nan)],
    )
    def test_nan_is_refused_not_a_perfect_call(self, field, rtt_ms, loss_rate):
        # A NaN RTT used to score 4.4, the best possible call.
        with pytest.raises(ValueError, match=field):
            e_model_mos(rtt_ms, loss_rate)

    @given(
        st.floats(min_value=0, max_value=2000),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100)
    def test_mos_always_in_range(self, rtt, loss):
        assert MOS_MIN <= e_model_mos(rtt, loss) <= MOS_MAX

    @given(st.floats(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_mos_monotone_in_loss(self, rtt):
        assert e_model_mos(rtt, 0.0) >= e_model_mos(rtt, 0.1) >= e_model_mos(rtt, 0.5)


class TestConfidence:
    def test_grades(self):
        assert Confidence.from_samples(0) is Confidence.NONE
        assert Confidence.from_samples(5) is Confidence.LOW
        assert Confidence.from_samples(50) is Confidence.MEDIUM
        assert Confidence.from_samples(500) is Confidence.HIGH


class TestPredictor:
    def _loaded_predictor(self, n=50, mbps=8.0, rtt=60.0, loss=0.001):
        store = ObservationStore()
        for t in range(n):
            store.record(obs(t=float(t), mbps=mbps, rtt=rtt, loss=loss))
        return PerformancePredictor(store)

    def test_download_prediction(self):
        predictor = self._loaded_predictor(mbps=8.0)
        prediction = predictor.predict_download_time(("isp-a", "nyc"), 10_000_000)
        # 80 Mbit at 8 Mbps = 10 s.
        assert prediction.expected_seconds == pytest.approx(10.0, rel=0.01)
        assert prediction.p90_seconds >= prediction.expected_seconds
        assert prediction.confidence is Confidence.MEDIUM

    def test_no_history_gives_no_confidence(self):
        predictor = PerformancePredictor(ObservationStore())
        prediction = predictor.predict_download_time(("a", "b"), 1000)
        assert prediction.confidence is Confidence.NONE
        assert math.isinf(prediction.expected_seconds)

    def test_insufficient_history_low_confidence(self):
        store = ObservationStore()
        store.record(obs())
        predictor = PerformancePredictor(store, min_samples=3)
        prediction = predictor.predict_download_time(("isp-a", "nyc"), 1000)
        assert prediction.confidence is Confidence.LOW

    def test_size_validation(self):
        with pytest.raises(ValueError):
            self._loaded_predictor().predict_download_time(("isp-a", "nyc"), 0)

    def test_call_quality_good_path(self):
        predictor = self._loaded_predictor(rtt=50.0, loss=0.0)
        prediction = predictor.predict_call_quality(("isp-a", "nyc"))
        assert prediction.acceptable
        assert prediction.mos >= ACCEPTABLE_MOS

    def test_call_quality_lossy_path(self):
        predictor = self._loaded_predictor(rtt=300.0, loss=0.08)
        prediction = predictor.predict_call_quality(("isp-a", "nyc"))
        assert not prediction.acceptable

    def test_call_quality_no_history(self):
        predictor = PerformancePredictor(ObservationStore())
        prediction = predictor.predict_call_quality(("a", "b"))
        assert prediction.confidence is Confidence.NONE
        assert not prediction.acceptable

    def test_predictions_use_location_pooling(self):
        # Observations from *other* connections at the same location
        # inform a brand-new client (the paper's core point).
        store = ObservationStore()
        for t in range(20):
            store.record(obs(location=("isp-a", "nyc"), t=float(t), mbps=2.0))
            store.record(obs(location=("isp-b", "lon"), t=float(t), mbps=50.0))
        predictor = PerformancePredictor(store)
        slow = predictor.predict_download_time(("isp-a", "nyc"), 1_000_000)
        fast = predictor.predict_download_time(("isp-b", "lon"), 1_000_000)
        assert slow.expected_seconds > fast.expected_seconds * 10

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            PerformancePredictor(ObservationStore(), min_samples=0)
