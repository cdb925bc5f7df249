"""Tests for on/off sources and long-running flows."""

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
from repro.workload import longrunning
from repro.workload import (
    OnOffConfig,
    OnOffSource,
    launch_long_running_flows,
)


def cubic_factory(sim, host, spec, size, done):
    return CubicSender(sim, host, spec, size, done)


def make_source(sim, top, rng_name="w", config=None, tracker=None):
    rngs = RngStreams(11)
    return OnOffSource(
        sim,
        top.senders[0],
        top.receivers[0],
        cubic_factory,
        FlowIdAllocator(),
        rngs.stream(rng_name),
        config or OnOffConfig(mean_on_bytes=50_000, mean_off_s=0.2),
        flow_tracker=tracker,
    )


class TestOnOffConfig:
    def test_paper_defaults(self):
        config = OnOffConfig()
        assert config.mean_on_bytes == 500_000
        assert config.mean_off_s == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffConfig(mean_on_bytes=0)
        with pytest.raises(ValueError):
            OnOffConfig(mean_off_s=-1)


class TestOnOffSource:
    def test_sequential_connections(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        source = make_source(sim, top)
        source.start()
        sim.run(until=30.0)
        source.stop()
        assert len(source.completed) >= 3
        # Connections are sequential: each starts after the previous ended.
        for prev, nxt in zip(source.completed, source.completed[1:]):
            assert nxt.start_time >= prev.end_time

    def test_flow_sizes_at_least_one_mss(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        source = make_source(
            sim, top, config=OnOffConfig(mean_on_bytes=10, mean_off_s=0.01)
        )
        source.start()
        sim.run(until=5.0)
        source.stop()
        assert source.completed
        assert all(s.bytes_goodput >= 1 for s in source.completed)

    def test_stop_prevents_new_connections(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        source = make_source(sim, top)
        source.start()
        sim.run(until=5.0)
        source.stop()
        count = source.connections_launched
        sim.run(until=10.0)
        assert source.connections_launched == count

    def test_a_source_stopped_before_its_first_launch_launches_nothing(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        source = make_source(sim, top)
        source.start()
        source.stop()
        sim.run(until=5.0)
        assert source.connections_launched == 0

    def test_no_off_time_runs_connections_back_to_back(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        source = make_source(sim, top, config=OnOffConfig(mean_on_bytes=20_000, mean_off_s=0.0))
        source.start()
        sim.run(until=5.0)
        done = source.completed
        assert len(done) >= 2
        assert all(b.start_time == a.end_time for a, b in zip(done, done[1:]))

    def test_flow_tracker_balanced(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        tracker = ActiveFlowTracker()
        source = make_source(sim, top, tracker=tracker)
        source.start()
        sim.run(until=20.0)
        source.stop()
        assert tracker.active_flows == 0
        assert source.connections_launched > 0

    def test_deterministic_with_same_seed(self):
        def run_once():
            sim = Simulator()
            top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
            source = make_source(sim, top)
            source.start()
            sim.run(until=20.0)
            source.stop()
            return [(s.bytes_goodput, round(s.duration, 9)) for s in source.completed]

        assert run_once() == run_once()

    def test_all_stats_leave_out_the_active_connection(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        source = make_source(
            sim, top, config=OnOffConfig(mean_on_bytes=50_000_000, mean_off_s=0.1)
        )
        source.start()
        sim.run(until=3.0)
        assert not source._active_sender.finished
        assert len(source.all_stats()) == 0
        source.stop()


class TestLongRunning:
    def test_flows_persist_and_accumulate(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=4))
        pairs = [(top.senders[i], top.receivers[i]) for i in range(4)]
        flows = launch_long_running_flows(
            sim, pairs, cubic_factory, FlowIdAllocator(), RngStreams(3).stream("lr")
        )
        sim.run(until=20.0)
        stats = [f.finish() for f in flows]
        assert all(not s.completed for s in stats)
        assert all(s.bytes_goodput > 0 for s in stats)

    def test_aggregate_respects_capacity(self):
        sim = Simulator()
        config = DumbbellConfig(n_senders=4, bottleneck_bandwidth_bps=5e6)
        top = DumbbellTopology(sim, config)
        pairs = [(top.senders[i], top.receivers[i]) for i in range(4)]
        flows = launch_long_running_flows(
            sim, pairs, cubic_factory, FlowIdAllocator(), RngStreams(3).stream("lr")
        )
        sim.run(until=30.0)
        stats = [f.finish() for f in flows]
        total_bps = sum(s.bytes_goodput for s in stats) * 8.0 / 30.0
        assert total_bps <= config.bottleneck_bandwidth_bps * 1.05

    def test_tracker_balance_after_finish(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        tracker = ActiveFlowTracker()
        pairs = [(top.senders[i], top.receivers[i]) for i in range(2)]
        flows = launch_long_running_flows(
            sim,
            pairs,
            cubic_factory,
            FlowIdAllocator(),
            RngStreams(3).stream("lr"),
            flow_tracker=tracker,
        )
        sim.run(until=10.0)
        for flow in flows:
            flow.finish()
        assert tracker.active_flows == 0

    def test_a_drained_persistent_flow_leaves_the_tracker_once(self, monkeypatch):
        # A persistent flow is not expected to drain; one that does
        # leaves the active count at completion, and finish() does not
        # take it off again.
        monkeypatch.setattr(longrunning, "PERSISTENT_FLOW_BYTES", 30_000)
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        tracker = ActiveFlowTracker()
        pairs = [(top.senders[i], top.receivers[i]) for i in range(2)]
        flows = launch_long_running_flows(
            sim,
            pairs,
            cubic_factory,
            FlowIdAllocator(),
            RngStreams(3).stream("lr"),
            flow_tracker=tracker,
        )
        sim.run(until=10.0)
        assert tracker.active_flows == 0
        stats = [flow.finish() for flow in flows]
        assert tracker.active_flows == 0
        assert all(s.completed and s.bytes_goodput == 30_000 for s in stats)
