"""Tests for informed adaptation: jitter buffers and dupACK thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptation import (
    JitterObservatory,
    ReorderingObservatory,
    late_loss_rate,
)
from repro.adaptation.dupack import MAX_THRESHOLD
from repro.adaptation.jitterbuffer import DEFAULT_SAFETY_FACTOR, UNINFORMED_DEFAULT_BUFFER_S
from repro.transport.base import DEFAULT_DUPACK_THRESHOLD

LOCATION = ("isp-a", "nyc")


class TestJitterObservatory:
    def test_recommend_without_data_falls_back(self):
        observatory = JitterObservatory()
        rec = observatory.recommend(LOCATION)
        assert rec.buffer_s == UNINFORMED_DEFAULT_BUFFER_S
        assert rec.samples == 0

    def test_recommendation_tracks_quantile(self):
        observatory = JitterObservatory()
        rng = np.random.default_rng(0)
        for jitter in rng.exponential(0.010, size=2000):
            observatory.record_jitter(LOCATION, float(jitter))
        rec = observatory.recommend(LOCATION)
        # p95 of Exp(0.010) is ~30 ms.
        assert rec.p95_jitter_s == pytest.approx(0.030, rel=0.2)
        assert rec.buffer_s == pytest.approx(DEFAULT_SAFETY_FACTOR * rec.p95_jitter_s)
        assert rec.samples == 2000

    def test_validation(self):
        observatory = JitterObservatory()
        with pytest.raises(ValueError):
            observatory.record_jitter(LOCATION, -0.1)

    def test_nan_sample_is_refused_and_p95_stays_finite(self):
        # One NaN used to make recommend() return the 0.1 ms floor with a
        # NaN p95.
        observatory = JitterObservatory()
        for jitter in np.linspace(0.010, 0.030, 30):
            observatory.record_jitter(LOCATION, float(jitter))
        with pytest.raises(ValueError, match="jitter_s"):
            observatory.record_jitter(LOCATION, float("nan"))
        rec = observatory.recommend(LOCATION)
        assert rec.samples == 30
        assert 0.010 <= rec.p95_jitter_s <= 0.030
        assert rec.buffer_s >= rec.p95_jitter_s

    def test_locations_independent(self):
        observatory = JitterObservatory()
        observatory.record_jitter(LOCATION, 0.5)
        other = observatory.recommend(("isp-b", "lon"))
        assert other.samples == 0


class TestLateLoss:
    def test_zero_buffer_loses_all_but_fastest(self):
        delays = [0.10, 0.11, 0.12, 0.10]
        assert late_loss_rate(delays, 0.0) == pytest.approx(0.5)

    def test_large_buffer_loses_nothing(self):
        delays = [0.10, 0.11, 0.12]
        assert late_loss_rate(delays, 0.05) == 0.0

    def test_empty(self):
        assert late_loss_rate([], 0.01) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            late_loss_rate([0.1], -0.01)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=200),
        st.floats(min_value=0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_late_loss_monotone_in_buffer(self, delays, buffer_s):
        smaller = late_loss_rate(delays, buffer_s / 2)
        larger = late_loss_rate(delays, buffer_s)
        assert larger <= smaller


class TestReorderingObservatory:
    PATH = ("dc-east", "isp-a")

    def test_default_threshold_without_data(self):
        observatory = ReorderingObservatory()
        rec = observatory.recommend(self.PATH)
        assert rec.threshold == DEFAULT_DUPACK_THRESHOLD
        assert rec.samples == 0

    def test_ordered_path_keeps_standard_threshold(self):
        observatory = ReorderingObservatory()
        observatory.record_depths(self.PATH, [0] * 1000)
        rec = observatory.recommend(self.PATH)
        assert rec.threshold == 3
        assert rec.spurious_probability == 0.0

    def test_reordering_path_raises_threshold(self):
        observatory = ReorderingObservatory()
        # 5% of packets arrive with depth 4: threshold 3 or 4 would fire
        # spuriously far above a 0.1% target.
        depths = [0] * 950 + [4] * 50
        observatory.record_depths(self.PATH, depths)
        rec = observatory.recommend(self.PATH, target_spurious=0.001)
        assert rec.threshold == 5
        assert rec.spurious_probability <= 0.001

    def test_pathological_path_capped(self):
        observatory = ReorderingObservatory()
        observatory.record_depths(self.PATH, [20] * 100)
        rec = observatory.recommend(self.PATH)
        assert rec.threshold == MAX_THRESHOLD

    def test_spurious_probability(self):
        observatory = ReorderingObservatory()
        observatory.record_depths(self.PATH, [0, 0, 3, 3])
        assert observatory.spurious_probability(self.PATH, 3) == pytest.approx(0.5)
        assert observatory.spurious_probability(self.PATH, 4) == 0.0
        assert observatory.spurious_probability(("dc-west", "isp-b"), 3) == 0.0  # unseen

    def test_validation(self):
        observatory = ReorderingObservatory()
        with pytest.raises(ValueError):
            observatory.record_depths(self.PATH, [-1])
        with pytest.raises(ValueError):
            observatory.spurious_probability(self.PATH, 0)
        with pytest.raises(ValueError):
            observatory.recommend(self.PATH, target_spurious=0.0)

    def test_paths_independent(self):
        observatory = ReorderingObservatory()
        observatory.record_depths(self.PATH, [9] * 10)
        other = observatory.recommend(("dc-west", "isp-b"))
        assert other.threshold == DEFAULT_DUPACK_THRESHOLD
