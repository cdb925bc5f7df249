"""Tests for client-side replica failover (health, suspension, probation)."""

import pytest

from repro import telemetry
from repro.phi.channel import (
    ChannelConfig,
    ControlChannel,
    RpcStatus,
)
from repro.phi.context import CongestionContext
from repro.phi.failover import (
    FailoverChannel,
    FailoverConfig,
)
from repro.phi.server import ConnectionReport
from repro.simnet import Simulator


class FakeBackend:
    """Records protocol calls; can be told to refuse."""

    def __init__(self):
        self.lookups = 0
        self.reports = []
        self.refuse = None  # exception instance to raise, or None

    def lookup(self):
        if self.refuse is not None:
            raise self.refuse
        self.lookups += 1
        return CongestionContext.idle()

    def report(self, report):
        if self.refuse is not None:
            raise self.refuse
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


def make_stack(sim, n=3, fo_config=None, **channel_kwargs):
    backends = [FakeBackend() for _ in range(n)]
    channels = [
        ControlChannel(sim, backend, config=ChannelConfig(), **channel_kwargs)
        for backend in backends
    ]
    failover = FailoverChannel(
        sim,
        channels,
        rng=ZeroRng(),
        config=fo_config or FailoverConfig(),
    )
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

    def test_preference_must_be_permutation(self):
        sim = Simulator()
        channels = [ControlChannel(sim, FakeBackend()) for _ in range(2)]
        with pytest.raises(ValueError):
            FailoverChannel(sim, channels, rng=ZeroRng(), preference=[0, 0])
        failover = FailoverChannel(
            sim, channels, rng=ZeroRng(), preference=[1, 0]
        )
        assert failover.current_replica == 1


class TestFailover:
    def test_primary_serves_when_healthy(self):
        sim = Simulator()
        backends, _, failover = make_stack(sim)
        result = failover.call_lookup()
        assert result.ok
        assert backends[0].lookups == 1
        assert backends[1].lookups == 0
        assert failover.stats.failovers == 0

    def test_fails_over_when_primary_down(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        result = failover.call_lookup()
        assert result.ok
        assert backends[1].lookups == 1
        assert failover.stats.failovers == 1
        # Attempts include the primary's burned retries.
        assert result.attempts > 1
        assert failover.health(0).suspended_until > sim.now

    def test_backend_refusal_is_a_replica_failure(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        backends[0].refuse = ConnectionError("no quorum")
        result = failover.call_lookup()
        assert result.ok
        assert backends[1].lookups == 1
        assert failover.stats.failovers == 1
        assert channels[0].stats.by_status == {"backend_error": 1}
        assert failover.health(0).suspended_until > sim.now

    def test_all_down_returns_last_status(self):
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=2)
        for channel in channels:
            channel.mark_down()
        result = failover.call_lookup()
        assert not result.ok
        assert result.status is RpcStatus.SERVER_DOWN

    def test_all_suspended_fast_fails(self):
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=2)
        for channel in channels:
            channel.mark_down()
        failover.call_lookup()  # suspends both
        result = failover.call_lookup()
        assert result.status is RpcStatus.CIRCUIT_OPEN
        assert result.attempts == 0
        assert failover.stats.fast_failures == 1

    def test_report_failover_delivers_to_survivor(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        assert failover.call_report(make_report()).ok
        assert len(backends[1].reports) == 1


class TestStickinessAndProbation:
    def test_sticky_until_failure_then_sticky_on_survivor(self):
        sim = Simulator()
        backends, channels, failover = make_stack(sim)
        channels[0].mark_down()
        failover.call_lookup()
        assert failover.current_replica == 1
        channels[0].mark_up()
        # Replica 0 healed but suspended: calls stay on 1.
        failover.call_lookup()
        assert backends[1].lookups == 2
        assert backends[0].lookups == 0

    def test_probation_blocks_immediate_reselection(self):
        sim = Simulator()
        config = FailoverConfig(
            suspend_base_s=0.5, suspend_jitter=0.0, probation_successes=2
        )
        backends, channels, failover = make_stack(sim, fo_config=config)
        channels[0].mark_down()
        failover.call_lookup()          # fail over to 1, suspend 0
        channels[0].mark_up()

        def probe():
            return failover.call_lookup()

        # After the suspension lapses, 0 is probed (best health among
        # non-probation? no: probation sorts it last) — current stays 1
        # until 0 has served its probation successes.
        sim.schedule_at(1.0, probe)
        sim.schedule_at(1.1, probe)
        sim.run()
        assert failover.current_replica == 1
        assert failover.health(0).probation_left == 2

    def test_suspension_window_grows_and_caps(self):
        sim = Simulator()
        config = FailoverConfig(
            suspend_base_s=1.0,
            suspend_multiplier=2.0,
            suspend_max_s=3.0,
            suspend_jitter=0.0,
        )
        backends, channels, failover = make_stack(sim, n=1, fo_config=config)
        channels[0].mark_down()
        failover._record_failure(0)
        assert failover.health(0).suspended_until == pytest.approx(1.0)
        failover._record_failure(0)
        assert failover.health(0).suspended_until == pytest.approx(2.0)
        failover._record_failure(0)
        assert failover.health(0).suspended_until == pytest.approx(3.0)
        failover._record_failure(0)
        assert failover.health(0).suspended_until == pytest.approx(3.0)

    def test_jitter_scales_suspension(self):
        class HalfRng:
            def uniform(self, low, high):
                return (low + high) / 2

        sim = Simulator()
        config = FailoverConfig(
            suspend_base_s=1.0, suspend_jitter=0.5, probation_successes=0
        )
        channels = [ControlChannel(sim, FakeBackend())]
        failover = FailoverChannel(sim, channels, rng=HalfRng(), config=config)
        failover._record_failure(0)
        assert failover.health(0).suspended_until == pytest.approx(1.25)


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

    def test_stats_accounting(self):
        sim = Simulator()
        _, channels, failover = make_stack(sim, n=2)
        failover.call_lookup()
        channels[0].mark_down()
        failover.call_lookup()
        assert failover.stats.calls == 2
        assert failover.stats.successes == 2
        assert failover.stats.by_replica[0]["successes"] == 1
        assert failover.stats.by_replica[0]["failures"] == 1
        assert failover.stats.by_replica[1]["successes"] == 1
