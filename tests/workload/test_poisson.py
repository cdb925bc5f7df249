"""Tests for the open-loop Poisson workload."""

import pytest

from repro.simnet import (
    ActiveFlowTracker,
    DumbbellConfig,
    DumbbellTopology,
    FlowIdAllocator,
    RngStreams,
    Simulator,
)
from repro.transport import CubicSender
from repro.workload import PoissonConfig, PoissonFlowGenerator, poisson


def cubic_factory(sim, host, spec, size, done):
    return CubicSender(sim, host, spec, size, done)


def build_generator(config, n_pairs=4, seed=9, tracker=None, **kwargs):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=n_pairs))
    pairs = [(top.senders[i], top.receivers[i]) for i in range(n_pairs)]
    generator = PoissonFlowGenerator(
        sim,
        pairs,
        cubic_factory,
        FlowIdAllocator(),
        RngStreams(seed).stream("poisson"),
        config,
        flow_tracker=tracker,
        **kwargs,
    )
    return sim, top, generator


class TestPoissonConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonConfig(arrival_rate_per_s=0, mean_flow_bytes=1000)
        with pytest.raises(ValueError):
            PoissonConfig(arrival_rate_per_s=1, mean_flow_bytes=0)

    def test_offered_load(self):
        config = PoissonConfig(arrival_rate_per_s=2.0, mean_flow_bytes=500_000)
        # 2/s x 4 Mbit = 8 Mbps over 16 Mbps = 0.5.
        assert config.offered_load(16e6) == pytest.approx(0.5)

    def test_for_load_inverse(self):
        config = PoissonConfig.for_load(0.4, 15e6, mean_flow_bytes=250_000)
        assert config.offered_load(15e6) == pytest.approx(0.4)

    def test_for_load_validation(self):
        with pytest.raises(ValueError):
            PoissonConfig.for_load(0.0, 15e6)
        with pytest.raises(ValueError):
            PoissonConfig(1.0, 1000).offered_load(0)


class TestGenerator:
    def test_arrival_rate_statistics(self):
        config = PoissonConfig(arrival_rate_per_s=5.0, mean_flow_bytes=30_000)
        sim, top, generator = build_generator(config)
        generator.start()
        sim.run(until=40.0)
        generator.stop()
        # ~200 expected arrivals; allow generous Poisson slack.
        assert 140 <= generator.launched <= 260

    def test_flows_complete_and_close(self):
        config = PoissonConfig(arrival_rate_per_s=1.0, mean_flow_bytes=50_000)
        tracker = ActiveFlowTracker()
        sim, top, generator = build_generator(config, tracker=tracker)
        generator.start()
        sim.run(until=30.0)
        generator.stop()
        assert len(generator.completed) > 5
        assert tracker.active_flows == 0

    def test_open_loop_allows_concurrency(self):
        # Heavy load: arrivals outpace completions, flows pile up.
        config = PoissonConfig(arrival_rate_per_s=20.0, mean_flow_bytes=400_000)
        sim, top, generator = build_generator(config)
        generator.start()
        sim.run(until=10.0)
        assert len(generator._active) > 5
        generator.stop()
        assert len(generator._active) == 0

    def test_max_concurrent_rejects(self, monkeypatch):
        monkeypatch.setattr(poisson, "MAX_CONCURRENT", 3)
        config = PoissonConfig(arrival_rate_per_s=50.0, mean_flow_bytes=1_000_000)
        sim, top, generator = build_generator(config)
        generator.start()
        sim.run(until=5.0)
        assert len(generator._active) <= 3
        assert generator.rejected > 0
        generator.stop()

    def test_round_robin_spreads_pairs(self):
        config = PoissonConfig(arrival_rate_per_s=4.0, mean_flow_bytes=20_000)
        sim, top, generator = build_generator(config, n_pairs=4)
        generator.start()
        sim.run(until=20.0)
        generator.stop()
        sources = {s.flow_id % 4 for s in generator.completed}
        assert len(sources) > 1  # not all flows on one pair

    def test_stop_prevents_arrivals(self):
        config = PoissonConfig(arrival_rate_per_s=10.0, mean_flow_bytes=10_000)
        sim, top, generator = build_generator(config)
        generator.start()
        sim.run(until=2.0)
        generator.stop()
        count = generator.launched
        sim.run(until=4.0)
        assert generator.launched == count

    def test_requires_pairs(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PoissonFlowGenerator(
                sim,
                [],
                cubic_factory,
                FlowIdAllocator(),
                RngStreams(0).stream("x"),
                PoissonConfig(1.0, 1000),
            )

    def test_offered_load_tracks_utilization(self):
        """At moderate offered load, measured utilization lands nearby."""
        from repro.simnet import LinkMonitor

        config = PoissonConfig.for_load(0.5, 15e6, mean_flow_bytes=200_000)
        sim, top, generator = build_generator(config, n_pairs=4, seed=5)
        monitor = LinkMonitor(sim, top.bottleneck)
        monitor.start()
        generator.start()
        sim.run(until=60.0)
        generator.stop()
        measured = monitor.mean_utilization(since=10.0)
        assert 0.3 <= measured <= 0.75
