"""Tests for the simulation-to-prediction bridge."""

import pytest

from repro.prediction import (
    ObservationStore,
    PerformancePredictor,
    PredictionFeeder,
    observation_from_stats,
)
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport import CubicSender, TcpSink
from repro.transport.base import ConnectionStats

LOCATION = ("isp-a", "nyc")


def stats(goodput=1_000_000, duration=2.0, rtts=(0.15, 0.16)):
    s = ConnectionStats(flow_id=1)
    s.start_time = 0.0
    s.end_time = duration
    s.bytes_goodput = goodput
    s.rtt_samples = list(rtts)
    s.min_rtt = min(rtts) if rtts else float("inf")
    s.packets_sent = 700
    return s


class TestObservationFromStats:
    def test_conversion(self):
        obs = observation_from_stats(stats(), LOCATION)
        assert obs is not None
        assert obs.throughput_mbps == pytest.approx(4.0)
        assert obs.rtt_ms == pytest.approx(155.0)
        assert obs.location == LOCATION

    def test_empty_connection_skipped(self):
        assert observation_from_stats(stats(goodput=0), LOCATION) is None

    def test_no_rtt_samples(self):
        obs = observation_from_stats(stats(rtts=()), LOCATION)
        assert obs is not None
        assert obs.rtt_ms == 0.0


class TestFeeder:
    def test_record_counts(self):
        store = ObservationStore()
        feeder = PredictionFeeder(store, LOCATION)
        feeder.record(stats())
        feeder.record(stats(goodput=0))  # carried nothing: skipped
        assert len(store.recent(LOCATION)) == 1

    def test_wrap_records_the_sender(self):
        store = ObservationStore()
        feeder = PredictionFeeder(store, LOCATION)

        class FakeSender:
            def __init__(self):
                self.stats = stats()

        feeder.wrap()(FakeSender())
        assert len(store.recent(LOCATION)) == 1

    def test_end_to_end_with_real_flows(self):
        """Simulated connections feed predictions usable by new clients."""
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        store = ObservationStore()
        feeder = PredictionFeeder(store, LOCATION)
        for i in range(5):
            spec = FlowSpec(
                i + 1, top.senders[0].name, 1000 + i, top.receivers[0].name, 443
            )
            TcpSink(sim, top.receivers[0], spec)
            sender = CubicSender(
                sim, top.senders[0], spec, 400_000, feeder.wrap()
            )
            sim.schedule(i * 3.0, sender.start)
        sim.run(until=60.0)
        assert len(store.recent(LOCATION)) == 5
        predictor = PerformancePredictor(store)
        prediction = predictor.predict_download_time(LOCATION, 1_000_000)
        assert prediction.expected_seconds < 30.0
        assert prediction.expected_throughput_mbps > 0.5
