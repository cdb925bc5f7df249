"""Tests for the IPFIX pipeline: records, traffic model, sampler, collector,
and the Section 2.1 sharing analysis."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipfix import (
    EgressFlow,
    EgressTrafficModel,
    IpfixCollector,
    IpfixSampler,
    SampledHeader,
    dst_slash24,
    minute_slice,
    sharing_ccdf,
    sharing_stats,
)


class TestRecords:
    def test_slash24(self):
        assert dst_slash24("100.2.3.77") == "100.2.3.0/24"

    def test_slash24_invalid(self):
        with pytest.raises(ValueError):
            dst_slash24("not-an-ip")

    def test_minute_slice(self):
        assert minute_slice(0.0) == 0
        assert minute_slice(59.99) == 0
        assert minute_slice(60.0) == 1
        with pytest.raises(ValueError):
            minute_slice(-1.0)

    def test_flow_properties(self):
        flow = EgressFlow("1.2.3.4", 443, "100.0.0.9", 5000, 10.0, 5.0, 100)
        assert flow.four_tuple == ("1.2.3.4", 443, "100.0.0.9", 5000)
        assert flow.dst_subnet == "100.0.0.0/24"
        assert flow.end_s == 15.0

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            EgressFlow("a", 1, "100.0.0.1", 1, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            EgressFlow("a", 1, "100.0.0.1", 1, 0.0, -1.0, 5)

    def test_sampled_header_slot(self):
        header = SampledHeader(("a", 1, "100.0.1.2", 3), 125.0)
        assert header.dst_subnet == "100.0.1.0/24"
        assert header.minute == 2


@lru_cache(maxsize=None)  # one minute of ~25k flows, shared by the tests
def first_minute():
    return EgressTrafficModel(np.random.default_rng(0)).generate_minute(0)


class TestTrafficModel:
    def _model(self, seed=0):
        return EgressTrafficModel(np.random.default_rng(seed))

    def test_generates_approximately_poisson_count(self):
        # Poisson around 25,000 flows a minute: sd ~158.
        assert 24_000 < len(first_minute()) < 26_000

    def test_flows_start_within_minute(self):
        model = self._model()
        for flow in model.generate_minute(3):
            assert 180.0 <= flow.start_s < 240.0

    def test_zipf_skew(self):
        counts = {}
        for flow in first_minute():
            counts[flow.dst_subnet] = counts.get(flow.dst_subnet, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        # The most popular subnet should dwarf the median one.
        assert ordered[0] > 5 * ordered[len(ordered) // 2]

    def test_packets_at_least_minimum(self):
        assert all(f.packets >= 8 for f in first_minute())

    def test_deterministic_given_seed(self):
        again = self._model(seed=0).generate_minute(0)
        assert [f.four_tuple for f in again] == [f.four_tuple for f in first_minute()]

    def test_generate_stream(self):
        batches = list(self._model().generate(2))
        assert len(batches) == 2
        with pytest.raises(ValueError):
            list(self._model().generate(0))

    def test_subnet_ip_bounds(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.subnet_ip(9999, 1)


class TestSampler:
    def test_sampling_fraction_statistics(self):
        rng = np.random.default_rng(0)
        sampler = IpfixSampler(rng)
        flow = EgressFlow("a", 1, "100.0.0.1", 2, 0.0, 10.0, 4096 * 10_000)
        headers = sampler.sample_flow(flow)
        assert len(headers) == pytest.approx(10_000, rel=0.05)
        assert sampler.effective_rate == pytest.approx(4096, rel=0.05)

    def test_small_flows_usually_unsampled(self):
        rng = np.random.default_rng(0)
        sampler = IpfixSampler(rng)
        flows = [
            EgressFlow("a", i, "100.0.0.1", 2, 0.0, 1.0, 10) for i in range(500)
        ]
        headers = sampler.sample_flows(flows)
        # 500 flows x 10 packets at 1/4096: expect ~1 sample.
        assert len(headers) < 20

    def test_timestamps_within_flow_lifetime(self):
        rng = np.random.default_rng(1)
        sampler = IpfixSampler(rng)
        flow = EgressFlow("a", 1, "100.0.0.1", 2, 100.0, 50.0, 4096 * 100)
        for header in sampler.sample_flow(flow):
            assert 100.0 <= header.timestamp_s <= 150.0

    def test_zero_duration_flow(self):
        rng = np.random.default_rng(1)
        sampler = IpfixSampler(rng)
        flow = EgressFlow("a", 1, "100.0.0.1", 2, 7.0, 0.0, 4096 * 50)
        headers = sampler.sample_flow(flow)
        assert headers
        assert all(h.timestamp_s == 7.0 for h in headers)

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=30)
    def test_never_samples_more_than_packets(self, packets):
        rng = np.random.default_rng(0)
        sampler = IpfixSampler(rng)
        flow = EgressFlow("a", 1, "100.0.0.1", 2, 0.0, 1.0, packets)
        assert len(sampler.sample_flow(flow)) <= packets


class TestCollector:
    def _header(self, src_port, subnet_host="100.0.0.1", t=0.0):
        return SampledHeader(("srv", src_port, subnet_host, 443), t)

    def test_unique_flow_counting(self):
        collector = IpfixCollector()
        collector.ingest(self._header(1))
        collector.ingest(self._header(1))  # same flow
        collector.ingest(self._header(2))  # different flow, same slot
        assert collector.slot_count == 1
        assert [size for _flow, size in collector.flows_with_slot_sizes()] == [2, 2]

    def test_slots_split_by_minute(self):
        collector = IpfixCollector()
        collector.ingest(self._header(1, t=10.0))
        collector.ingest(self._header(1, t=70.0))
        assert collector.slot_count == 2

    def test_slots_split_by_subnet(self):
        collector = IpfixCollector()
        collector.ingest(self._header(1, "100.0.0.1"))
        collector.ingest(self._header(1, "100.0.1.1"))
        assert collector.slot_count == 2

    def test_flows_with_slot_sizes(self):
        collector = IpfixCollector()
        collector.ingest_many([self._header(i) for i in range(3)])
        pairs = collector.flows_with_slot_sizes()
        assert len(pairs) == 3
        assert all(size == 3 for _flow, size in pairs)


class TestSharingAnalysis:
    def _collector_with_slots(self, sizes):
        collector = IpfixCollector()
        for slot, size in enumerate(sizes):
            for i in range(size):
                collector.ingest(
                    SampledHeader(("srv", 1000 * slot + i, f"100.0.{slot}.1", 443), 0.0)
                )
        return collector

    def test_fractions(self):
        # Slots of 1, 6, and 101 flows.
        collector = self._collector_with_slots([1, 6, 101])
        stats = sharing_stats(collector)
        assert stats.observations == 108
        # Flows sharing with >= 5 others: the 6-slot and 101-slot flows.
        assert stats.fraction_at_least(5) == pytest.approx(107 / 108)
        assert stats.fraction_at_least(100) == pytest.approx(101 / 108)

    def test_empty_collector(self):
        stats = sharing_stats(IpfixCollector())
        assert stats.observations == 0
        assert stats.fraction_at_least(5) == 0.0

    def test_unknown_threshold_raises(self):
        stats = sharing_stats(self._collector_with_slots([2]))
        with pytest.raises(KeyError):
            stats.fraction_at_least(7)

    def test_ccdf_monotone(self):
        collector = self._collector_with_slots([1, 3, 10, 50])
        ccdf = sharing_ccdf(collector)
        fractions = [f for _k, f in ccdf]
        assert fractions == sorted(fractions, reverse=True)
        assert ccdf[0][1] == 1.0

    def test_end_to_end_shape_matches_paper(self):
        # Full pipeline at default calibration, small scale: the headline
        # fractions should be in the paper's neighbourhood.
        rng = np.random.default_rng(5)
        model = EgressTrafficModel(rng)
        sampler = IpfixSampler(rng)
        collector = IpfixCollector()
        for batch in model.generate(2):
            collector.ingest_many(sampler.sample_flows(batch))
        stats = sharing_stats(collector)
        assert 0.30 <= stats.fraction_at_least(5) <= 0.70
        assert 0.03 <= stats.fraction_at_least(100) <= 0.30
        assert stats.fraction_at_least(5) > stats.fraction_at_least(100)
