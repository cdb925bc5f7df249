"""Tests for Phi client factories and deployment mixes."""

from functools import partial

import pytest

from repro.experiments import ExperimentEnv
from repro.phi import (
    REFERENCE_POLICY,
    ContextServer,
    ControlChannel,
    Plane,
    PlaneSpec,
    ResilientContextClient,
    SharingMode,
    deployment_factories,
    split_stats,
)
from repro.remy import WhiskerTable
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport import CubicParams, CubicSender, RemySender
from repro.transport.sink import TcpSink


def setup_env():
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 10_000, top.receivers[0].name, 443)
    sink = TcpSink(sim, top.receivers[0], spec)
    return sim, top, spec, sink


def client_of(sim, server):
    """The resilient client every Phi sender looks its context up through."""
    return ResilientContextClient(ControlChannel(sim, server), now=lambda: sim.now)


class TestPhiCubicFactory:
    def test_lookup_and_report_cycle(self):
        sim, top, spec, sink = setup_env()
        server = ContextServer(sim, 15e6)
        factory = client_of(sim, server).sender_factory(REFERENCE_POLICY)
        done = []
        sender = factory(sim, top.senders[0], spec, 50_000, done.append)
        assert isinstance(sender, CubicSender)
        assert server.current_context().competing_senders == 1  # the lookup's lease
        sender.start()
        sim.run(until=30.0)
        assert done
        assert server.current_context().competing_senders == 0  # released by the report

    def test_params_follow_policy(self):
        sim, top, spec, sink = setup_env()
        server = ContextServer(sim, 15e6)  # idle -> LOW
        factory = client_of(sim, server).sender_factory(REFERENCE_POLICY)
        sender = factory(sim, top.senders[0], spec, 10_000, lambda s: None)
        from repro.phi.context import CongestionLevel

        assert sender.params == REFERENCE_POLICY.params_for_level(CongestionLevel.LOW)


class TestPhiRemyFactory:
    def test_none_mode_rejected(self):
        with pytest.raises(ValueError, match="shares no context"):
            PlaneSpec(table=WhiskerTable(), mode=SharingMode.NONE)

    def test_practical_mode_freezes_util(self):
        sim, top, spec, sink = setup_env()
        server = ContextServer(sim, 15e6)
        table = WhiskerTable(WhiskerTable.PHI_DIMENSIONS)
        factory = client_of(sim, server).sender_factory(table=table)
        sender = factory(sim, top.senders[0], spec, 10_000, lambda s: None)
        assert sender.tracker._util_provider is not None
        assert sender.tracker._util_provider() == 0.0  # idle at start
        assert server.current_context().competing_senders == 1  # one lookup's lease

    def test_ideal_plane_reads_the_oracle_live_util(self):
        env = ExperimentEnv.create(DumbbellConfig(n_senders=1))
        table = WhiskerTable(WhiskerTable.PHI_DIMENSIONS)
        plane = Plane(PlaneSpec(table=table, mode=SharingMode.IDEAL), env, 10.0)
        top = env.topology
        spec = FlowSpec(1, top.senders[0].name, 10_000, top.receivers[0].name, 443)
        TcpSink(env.sim, top.receivers[0], spec)
        sender = plane.factory(env.sim, top.senders[0], spec, 500_000, lambda s: None)
        sender.start()
        env.sim.run(until=2.0)
        live = env.monitor.current_utilization(10)
        assert live > 0
        assert sender.tracker._util_provider() == live

    def test_ideal_mode_uses_live_provider(self):
        sim, top, spec, sink = setup_env()
        server = ContextServer(sim, 15e6)
        live = {"u": 0.7}
        factory = client_of(sim, server).sender_factory(
            table=WhiskerTable(WhiskerTable.PHI_DIMENSIONS),
            live_utilization=lambda: live["u"],
        )
        sender = factory(sim, top.senders[0], spec, 10_000, lambda s: None)
        assert sender.tracker._util_provider() == 0.7
        live["u"] = 0.2
        assert sender.tracker._util_provider() == 0.2

    def test_unusable_context_runs_plain_remy(self):
        sim, top, spec, sink = setup_env()
        channel = ControlChannel(sim, ContextServer(sim, 15e6))
        channel.mark_down()
        client = ResilientContextClient(channel, now=lambda: sim.now)
        factory = client.sender_factory(table=WhiskerTable(WhiskerTable.PHI_DIMENSIONS))
        sender = factory(sim, top.senders[0], spec, 10_000, lambda s: None)
        assert client.decision_counts()["fallback"] == 1
        assert sender.tracker._util_provider is None


class TestPlainFactories:
    """Unmodified senders need no wrapper: the sender class is the factory."""

    def test_plain_cubic_uses_given_params(self):
        sim, top, spec, sink = setup_env()
        params = CubicParams(window_init=8)
        factory = partial(CubicSender, params=params)
        sender = factory(sim, top.senders[0], spec, 10_000, lambda s: None)
        assert sender.params == params

    def test_plain_cubic_defaults(self):
        sim, top, spec, sink = setup_env()
        sender = CubicSender(sim, top.senders[0], spec, 10_000, lambda s: None)
        assert sender.params == CubicParams.default()

    def test_plain_remy(self):
        sim, top, spec, sink = setup_env()
        table = WhiskerTable()
        sender = partial(RemySender, table=table)(
            sim, top.senders[0], spec, 10_000, lambda s: None
        )
        assert sender.table is table
        assert sender.tracker._util_provider is None


class TestDeployment:
    def test_half_and_half(self):
        mod = object()
        unmod = object()
        assignments = deployment_factories(8, 0.5, mod, unmod)
        assert sum(1 for a in assignments if a.modified) == 4
        assert all(a.factory is mod for a in assignments if a.modified)
        assert all(a.factory is unmod for a in assignments if not a.modified)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            deployment_factories(8, 1.5, None, None)
        with pytest.raises(ValueError):
            deployment_factories(0, 0.5, None, None)

    def test_zero_and_full(self):
        assignments = deployment_factories(5, 0.0, "m", "u")
        assert not any(a.modified for a in assignments)
        assignments = deployment_factories(5, 1.0, "m", "u")
        assert all(a.modified for a in assignments)

    def test_rounding(self):
        assignments = deployment_factories(5, 0.5, "m", "u")
        assert sum(1 for a in assignments if a.modified) == 2  # round(2.5) == 2

    def test_split_stats(self):
        assignments = deployment_factories(4, 0.5, "m", "u")
        per_sender = [[1, 2], [3], [4], [5, 6]]
        modified, unmodified = split_stats(assignments, per_sender)
        assert modified == [1, 2, 3]
        assert unmodified == [4, 5, 6]

    def test_split_stats_length_mismatch(self):
        assignments = deployment_factories(2, 0.5, "m", "u")
        with pytest.raises(ValueError):
            split_stats(assignments, [[1]])
