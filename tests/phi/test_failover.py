"""Tests for client-side replica failover (health, suspension, probation)."""

import pytest

from repro import telemetry
from repro.phi.channel import ControlChannel, RpcStatus
from repro.phi.failover import (
    PROBATION_SUCCESSES,
    SUSPEND_S,
    FailoverChannel,
    FailoverConfig,
)
from repro.phi.server import ConnectionReport
from repro.simnet import Outage, Simulator

from .conftest import IDLE


class FakeBackend:
    """Records protocol calls."""

    def __init__(self):
        self.lookups = 0
        self.reports = []

    def lookup(self):
        self.lookups += 1
        return IDLE

    def report(self, report):
        self.reports.append(report)


class ZeroRng:
    def uniform(self, low, high):
        return low


def make_report():
    return ConnectionReport(
        flow_id=1,
        reported_at=0.0,
        bytes_transferred=1000,
        duration_s=1.0,
        mean_rtt_s=0.16,
        min_rtt_s=0.15,
        loss_indicator=0.0,
    )


def make_stack(sim, n=3):
    backends = [FakeBackend() for _ in range(n)]
    channels = [ControlChannel(sim, backend) for backend in backends]
    failover = FailoverChannel(sim, channels, rng=ZeroRng())
    return backends, channels, failover


class TestConstruction:
    def test_needs_channels(self):
        with pytest.raises(ValueError):
            FailoverChannel(Simulator(), [], rng=ZeroRng())

    def test_jitter_requires_rng(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        with pytest.raises(ValueError):
            FailoverChannel(sim, [channel])  # default config jitters
        # Jitter disabled: no rng needed.
        FailoverChannel(
            sim, [channel], config=FailoverConfig(suspend_jitter=0.0)
        )


class TestFailover:
    def test_primary_serves_when_healthy(self):
        sim = Simulator()
        backends, _, failover = make_stack(sim)
        result = failover.call_lookup()
        assert result.status is RpcStatus.OK
        assert backends[0].lookups == 1
        assert backends[1].lookups == 0
        assert failover.stats.failovers == 0

    def test_fails_over_when_primary_down(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        result = failover.call_lookup()
        assert result.status is RpcStatus.OK
        assert backends[1].lookups == 1
        assert failover.stats.failovers == 1
        # One call reached both replicas: the down primary, then replica 1.
        assert failover.stats.by_replica == {
            0: {"attempts": 1, "successes": 0, "failures": 1},
            1: {"attempts": 1, "successes": 1, "failures": 0},
        }
        assert failover._health[0].suspended_until > sim.now

    def test_a_raising_backend_is_not_failed_over(self):
        """A backend that raises is a bug, not a down replica: the
        exception propagates and no replica is charged or tried next."""
        sim = Simulator()
        backends, channels, failover = make_stack(sim)

        def broken_lookup():
            raise ConnectionError("no server")

        backends[0].lookup = broken_lookup
        with pytest.raises(ConnectionError):
            failover.call_lookup()
        assert backends[1].lookups == 0 and backends[2].lookups == 0
        assert failover.stats.by_replica == {}
        assert failover.stats.failovers == 0

    def test_all_down_returns_last_status(self):
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=2)
        for channel in channels:
            channel.mark_down()
        result = failover.call_lookup()
        assert result.status is not RpcStatus.OK
        assert result.status is RpcStatus.SERVER_DOWN

    def test_all_suspended_fast_fails(self):
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=2)
        for channel in channels:
            channel.mark_down()
        failover.call_lookup()  # suspends both
        result = failover.call_lookup()
        assert result.status is RpcStatus.ALL_SUSPENDED
        by_replica = failover.stats.by_replica
        assert [by_replica[i]["attempts"] for i in range(2)] == [1, 1]  # no replica asked
        assert failover.stats.fast_failures == 1

    def test_report_failover_delivers_to_survivor(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        assert failover.call_report(make_report()).status is RpcStatus.OK
        assert len(backends[1].reports) == 1


class TestStickinessAndProbation:
    def test_sticky_until_failure_then_sticky_on_survivor(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        failover.call_lookup()
        assert backends[1].lookups == 1
        channels[0].mark_up()
        # Replica 0 healed but suspended: calls stay on 1.
        failover.call_lookup()
        assert backends[1].lookups == 2
        assert backends[0].lookups == 0

    def test_probation_blocks_immediate_reselection(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        failover.call_lookup()          # fail over to 1, suspend 0
        channels[0].mark_up()

        def probe():
            return failover.call_lookup()

        # After the suspension lapses, 0 is probed (best health among
        # non-probation? no: probation sorts it last) — current stays 1
        # until 0 has served its probation successes.
        assert SUSPEND_S < 1.0
        sim.schedule_at(1.0, probe)
        sim.schedule_at(1.1, probe)
        sim.run()
        served = backends[1].lookups
        failover.call_lookup()  # the sticky replica answers
        assert backends[1].lookups == served + 1
        assert failover._health[0].probation_left == PROBATION_SUCCESSES

    def test_suspension_window_stays_constant(self):
        """A replica that keeps failing is benched for the same window
        each time: nothing grows with consecutive failures."""
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=1)
        channels[0].mark_down()
        windows = []
        for at in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            sim.run(until=at)
            assert failover.call_lookup().status is RpcStatus.SERVER_DOWN
            windows.append(failover._health[0].suspended_until - sim.now)
        assert windows == [SUSPEND_S] * 7

    def test_jitter_scales_suspension(self):
        class HalfRng:
            def uniform(self, low, high):
                return (low + high) / 2

        sim = Simulator()
        config = FailoverConfig(suspend_jitter=0.5)
        channels = [ControlChannel(sim, FakeBackend())]
        failover = FailoverChannel(sim, channels, rng=HalfRng(), config=config)
        failover._record_failure(0)
        assert failover._health[0].suspended_until == pytest.approx(1.25 * SUSPEND_S)


class TestOneReplica:
    """A single-server plane is the one-replica failover channel: a
    failed call benches the server, calls in the window are refused
    without an attempt, and the first call after it reaches the server."""

    def test_bench_refuses_then_lapses(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim, n=1)
        Outage(sim, 0.0, 1.0, targets=[channels[0]])
        outcomes = []
        for at in (0.4, 0.5, 0.8, 0.95, 1.5):
            sim.schedule_at(at, lambda: outcomes.append(failover.call_lookup().status))
        sim.run()
        assert outcomes == [
            RpcStatus.SERVER_DOWN,    # benched until 0.9
            RpcStatus.ALL_SUSPENDED,  # refused without an attempt
            RpcStatus.ALL_SUSPENDED,
            RpcStatus.SERVER_DOWN,    # the bench lapsed; still down: to 1.45
            RpcStatus.OK,             # the server healed at 1.0
        ]
        assert backends[0].lookups == 1
        assert failover.stats.fast_failures == 2
        assert failover.stats.by_replica == {
            0: {"attempts": 3, "successes": 1, "failures": 2},
        }


class TestTelemetry:
    def test_per_replica_counters_and_failovers(self):
        with telemetry.use() as tele:
            sim = Simulator()
            _, channels, failover = make_stack(sim)
            failover.call_lookup()
            channels[0].mark_down()
            failover.call_lookup()
            snapshot = tele.registry.snapshot()
        counters = snapshot["counters"]
        assert counters.get("phi.replica_rpc_calls{replica=0,status=ok}") == 1
        assert counters.get("phi.replica_rpc_calls{replica=1,status=ok}") == 1
        assert (
            counters.get("phi.replica_rpc_calls{replica=0,status=server_down}")
            == 1
        )
        assert counters.get("phi.failovers") == 1

    def test_a_failover_is_a_flight_record(self):
        from repro import flightrec

        with flightrec.use() as recorder:
            sim = Simulator()
            _, channels, failover = make_stack(sim)
            channels[0].mark_down()
            failover.call_lookup()
        (record,) = [r for r in recorder.records() if r["kind"] == "failover"]
        assert record["detail"] == {"primary": 0, "served_by": 1}

    def test_stats_accounting(self):
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=2)
        failover.call_lookup()
        channels[0].mark_down()
        assert failover.call_lookup().status is RpcStatus.OK
        assert failover.stats.by_replica[0]["successes"] == 1
        assert failover.stats.by_replica[0]["failures"] == 1
        assert failover.stats.by_replica[1]["successes"] == 1
