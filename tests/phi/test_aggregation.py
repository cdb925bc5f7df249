"""Tests for secure cross-provider aggregation (Section 3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phi.aggregation import (
    FIELD_PRIME,
    SecureCongestionAggregation,
    decode,
    encode,
    make_shares,
)


class TestEncoding:
    def test_round_trip(self):
        assert decode(encode(0.734512)) == pytest.approx(0.734512, abs=1e-6)

    def test_zero(self):
        assert decode(encode(0.0)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode(-0.1)

    def test_huge_rejected(self):
        with pytest.raises(ValueError):
            encode(1e18)

    @given(st.floats(min_value=0, max_value=1_000_000))
    @settings(max_examples=100)
    def test_round_trip_property(self, value):
        assert decode(encode(value)) == pytest.approx(value, abs=1e-6)


class TestShares:
    def test_shares_sum_to_value(self):
        rng = np.random.default_rng(0)
        shares = make_shares(0.85, 3, rng)
        total = sum(shares) % FIELD_PRIME
        assert decode(total) == pytest.approx(0.85, abs=1e-6)

    def test_minimum_two_shares(self):
        with pytest.raises(ValueError):
            make_shares(0.5, 1, np.random.default_rng(0))

    def test_single_share_reveals_nothing(self):
        # The first share is uniform, independent of the secret: the same
        # RNG stream produces the same first share for different secrets.
        a = make_shares(0.1, 2, np.random.default_rng(7))
        b = make_shares(0.9, 2, np.random.default_rng(7))
        assert a[0] == b[0]
        assert a[1] != b[1]

    @given(
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60)
    def test_any_share_count_reconstructs(self, value, n):
        shares = make_shares(value, n, np.random.default_rng(3))
        assert decode(sum(shares) % FIELD_PRIME) == pytest.approx(value, abs=1e-6)


class TestSecureAggregation:
    def test_mean_revealed_exactly(self):
        protocol = SecureCongestionAggregation(
            ["agg-1", "agg-2", "agg-3"], np.random.default_rng(1)
        )
        levels = {"netflix": 0.8, "youtube": 0.6, "cloud-x": 0.4}
        for provider, level in levels.items():
            protocol.submit(provider, level)
        assert protocol.reveal_mean() == pytest.approx(0.6, abs=1e-6)
        assert protocol.round_size == 3

    def test_individual_aggregator_sees_noise(self):
        rng = np.random.default_rng(2)
        protocol = SecureCongestionAggregation(["a", "b"], rng)
        protocol.submit("p1", 0.5)
        # A single aggregator's partial decodes to an arbitrary field
        # element, not the secret.
        partial = protocol.aggregators[0].partial_sum
        assert decode(partial) != pytest.approx(0.5, abs=1e-3)

    def test_requires_two_aggregators(self):
        with pytest.raises(ValueError):
            SecureCongestionAggregation(["solo"], np.random.default_rng(0))

    def test_duplicate_aggregators_rejected(self):
        with pytest.raises(ValueError):
            SecureCongestionAggregation(["a", "a"], np.random.default_rng(0))

    def test_empty_round_rejected(self):
        protocol = SecureCongestionAggregation(["a", "b"], np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            protocol.reveal_mean()

    def test_contribution_counts(self):
        protocol = SecureCongestionAggregation(["a", "b"], np.random.default_rng(0))
        protocol.submit("p1", 0.2)
        protocol.submit("p2", 0.4)
        assert protocol.round_size == 2
        # Every aggregator folded in one share of each submission.
        assert protocol.reveal_mean() * protocol.round_size == pytest.approx(0.6)
