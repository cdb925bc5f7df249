"""Tests for the failure-aware control channel (RPCs, retries, breaker)."""

import pytest

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import (
    BreakerState,
    ChannelConfig,
    CircuitBreaker,
    ControlChannel,
    RpcResult,
    RpcStatus,
)
from repro.phi.context import CongestionContext
from repro.phi.failover import FailoverChannel, FailoverConfig
from repro.phi.replication import ReadPolicy, ReplicatedContextService, ReplicationConfig
from repro.phi.server import ContextServer
from repro.simnet import Outage, Simulator


class FakeBackend:
    """Records protocol calls; always answers."""

    def __init__(self):
        self.lookups = 0
        self.reports = []

    def lookup(self):
        self.lookups += 1
        return CongestionContext.idle()

    def report(self, report):
        self.reports.append(report)


class SeqRng:
    """Deterministic rng stub: random() pops from a list, uniform() is 0."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else 1.0

    def uniform(self, low, high):
        return low


def make_report():
    from repro.phi.server import ConnectionReport

    return ConnectionReport(
        flow_id=1,
        reported_at=0.0,
        bytes_transferred=1000,
        duration_s=1.0,
        mean_rtt_s=0.16,
        min_rtt_s=0.15,
        loss_indicator=0.0,
    )


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ChannelConfig(latency_s=-1)
        with pytest.raises(ValueError):
            ChannelConfig(loss_probability=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(timeout_s=0)
        with pytest.raises(ValueError):
            ChannelConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ChannelConfig(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            ChannelConfig(deadline_s=0)

    def test_rng_required_for_loss(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ControlChannel(
                sim, FakeBackend(), config=ChannelConfig(loss_probability=0.1)
            )

    def test_backoff_schedule(self):
        cfg = ChannelConfig(
            backoff_base_s=0.1, backoff_multiplier=2.0, backoff_max_s=0.3
        )
        assert cfg.backoff_s(0) == pytest.approx(0.1)
        assert cfg.backoff_s(1) == pytest.approx(0.2)
        assert cfg.backoff_s(2) == pytest.approx(0.3)  # capped
        assert cfg.backoff_s(5) == pytest.approx(0.3)


class TestHealthyChannel:
    def test_passthrough_lookup_and_report(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        ctx = channel.call_lookup().value
        assert backend.lookups == 1
        assert ctx.utilization == 0.0
        assert channel.call_report(make_report()).ok
        assert len(backend.reports) == 1
        assert channel.stats.successes == 2
        assert channel.stats.failures == 0

    def test_result_accounting(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, FakeBackend(), config=ChannelConfig(latency_s=0.004)
        )
        result = channel.call_lookup()
        assert result.ok and result.attempts == 1
        assert result.elapsed_s == pytest.approx(0.004)

    def test_works_against_real_server(self):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        channel = ControlChannel(sim, server)
        assert channel.call_lookup().ok
        assert server.active_connections == 1


class TestRetries:
    def test_transient_loss_retried_to_success(self):
        sim = Simulator()
        backend = FakeBackend()
        cfg = ChannelConfig(loss_probability=0.4, max_retries=3)
        # First two draws lose the message, third passes (0.9 >= 0.4).
        channel = ControlChannel(sim, backend, config=cfg, rng=SeqRng([0.1, 0.2, 0.9]))
        result = channel.call_lookup()
        assert result.ok
        assert result.attempts == 3
        assert backend.lookups == 1
        assert channel.stats.retries == 2
        # Two timeouts plus two backoffs plus the final latency.
        expected = 2 * cfg.timeout_s + cfg.backoff_s(0) + cfg.backoff_s(1) + cfg.latency_s
        assert result.elapsed_s == pytest.approx(expected)

    def test_exhausted_retries_fail(self):
        sim = Simulator()
        cfg = ChannelConfig(loss_probability=0.5, max_retries=2, deadline_s=10.0)
        channel = ControlChannel(
            sim, FakeBackend(), config=cfg, rng=SeqRng([0.0, 0.0, 0.0])
        )
        result = channel.call_lookup()
        assert not result.ok
        assert result.status is RpcStatus.TIMEOUT
        assert result.attempts == 3  # initial + 2 retries

    def test_deadline_bounds_total_elapsed(self):
        sim = Simulator()
        cfg = ChannelConfig(
            loss_probability=0.99,
            max_retries=50,
            timeout_s=0.25,
            backoff_base_s=0.05,
            deadline_s=1.0,
        )
        channel = ControlChannel(sim, FakeBackend(), config=cfg, rng=SeqRng([0.0] * 60))
        result = channel.call_lookup()
        assert not result.ok
        assert result.status is RpcStatus.DEADLINE_EXCEEDED
        # Retries stop while a worst-case follow-up still fits the budget.
        assert result.elapsed_s <= cfg.deadline_s
        assert result.attempts < 51

    def test_latency_above_timeout_is_a_timeout(self):
        sim = Simulator()
        cfg = ChannelConfig(latency_s=0.5, timeout_s=0.25, max_retries=0)
        channel = ControlChannel(sim, FakeBackend(), config=cfg)
        result = channel.call_lookup()
        assert result.status is RpcStatus.TIMEOUT

    def test_failed_call_returns_its_status(self):
        sim = Simulator()
        cfg = ChannelConfig(max_retries=0)
        backend = FakeBackend()
        channel = ControlChannel(sim, backend, config=cfg)
        channel.mark_down()
        result = channel.call_lookup()
        assert result == RpcResult(RpcStatus.SERVER_DOWN, 1, cfg.timeout_s)
        assert backend.lookups == 0


class TestBackendRefusal:
    """A backend that raises ``OSError`` ends the call as REFUSED, recorded
    once like every other outcome; any other exception propagates."""

    def _quorum_channels(self):
        # QUORUM reads with replica 0 cut off from both peers: replica 0
        # refuses every lookup with QuorumUnavailable.
        sim = Simulator()
        service = ReplicatedContextService(
            sim, 15e6,
            config=ReplicationConfig(n_replicas=3, read_policy=ReadPolicy.QUORUM),
        )
        service.sever(0, 1)
        service.sever(0, 2)
        channels = [ControlChannel(sim, service.handle(i)) for i in range(3)]
        return sim, channels

    def test_refusal_is_one_final_result(self):
        with telemetry.use() as tele, flightrec.use() as rec:
            sim, channels = self._quorum_channels()
            result = channels[0].call_lookup()
            counters = tele.registry.snapshot()["counters"]
        assert result == RpcResult(RpcStatus.REFUSED, 1, 0.005)
        stats = channels[0].stats
        assert (stats.calls, stats.failures, stats.attempts) == (1, 1, 1)
        assert stats.by_status == {"backend_error": 1}
        assert counters["phi.rpc_calls{op=lookup,status=backend_error}"] == 1
        (record,) = [r for r in iter_layer(rec.records(), "phi") if r["kind"] == "rpc"]
        assert record["detail"] == {"status": "backend_error", "attempts": 1, "elapsed_s": 0.005}

    def test_failover_counts_the_refused_attempt(self):
        with flightrec.use() as rec:
            sim, channels = self._quorum_channels()
            failover = FailoverChannel(
                sim, channels, config=FailoverConfig(suspend_jitter=0.0)
            )
            result = failover.call_lookup()
        assert (result.status, result.attempts, result.elapsed_s) == (RpcStatus.OK, 2, 0.01)
        assert channels[0].stats.by_status == {"backend_error": 1}
        assert channels[1].stats.by_status == {"ok": 1}
        assert [r["detail"]["status"] for r in iter_layer(rec.records(), "phi")
                if r["kind"] == "rpc"] == ["backend_error", "ok"]

    def test_other_exceptions_propagate(self):
        class BuggyBackend(FakeBackend):
            def lookup(self):
                raise KeyError("not a refusal")

        channel = ControlChannel(Simulator(), BuggyBackend())
        with pytest.raises(KeyError):
            channel.call_lookup()


class TestOutages:
    def test_marks_nest(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        channel.mark_down()
        channel.mark_down()
        channel.mark_up()
        assert not channel.server_up
        channel.mark_up()
        assert channel.server_up
        channel.mark_up()  # extra up is a no-op
        assert channel.server_up

    def test_scheduled_outage_window(self):
        sim = Simulator()
        backend = FakeBackend()
        cfg = ChannelConfig(max_retries=0)
        channel = ControlChannel(sim, backend, config=cfg)
        Outage(sim, 1.0, 2.0, targets=[channel])
        outcomes = {}
        sim.schedule_at(0.5, lambda: outcomes.update(before=channel.call_lookup().ok))
        sim.schedule_at(2.0, lambda: outcomes.update(during=channel.call_lookup().ok))
        sim.schedule_at(3.5, lambda: outcomes.update(after=channel.call_lookup().ok))
        sim.run()
        assert outcomes == {"before": True, "during": False, "after": True}

    def test_outage_starting_now_takes_effect_immediately(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend(), config=ChannelConfig(max_retries=0))
        Outage(sim, 0.0, 1.0, targets=[channel])
        assert not channel.server_up
        sim.run(until=1.5)
        assert channel.server_up

    def test_server_outage_fault_drives_channel(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend(), config=ChannelConfig(max_retries=0))
        Outage(sim, 1.0, 1.0, targets=[channel])
        sim.run(until=1.5)
        assert not channel.server_up
        sim.run(until=2.5)
        assert channel.server_up


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        sim = Simulator()
        breaker = CircuitBreaker(lambda: sim.now, failure_threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_count(self):
        sim = Simulator()
        breaker = CircuitBreaker(lambda: sim.now, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        sim = Simulator()
        breaker = CircuitBreaker(
            lambda: sim.now, failure_threshold=1, reset_timeout_s=5.0
        )
        breaker.record_failure()
        assert not breaker.allow()
        sim.schedule(6.0, lambda: None)
        sim.run()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        sim = Simulator()
        breaker = CircuitBreaker(
            lambda: sim.now, failure_threshold=3, reset_timeout_s=5.0
        )
        for _ in range(3):
            breaker.record_failure()
        sim.schedule(6.0, lambda: None)
        sim.run()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()  # probe fails: straight back to OPEN
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_open_breaker_fails_fast_without_attempts(self):
        sim = Simulator()
        backend = FakeBackend()
        cfg = ChannelConfig(max_retries=0)
        channel = ControlChannel(
            sim,
            backend,
            config=cfg,
            breaker=CircuitBreaker(lambda: sim.now, failure_threshold=2),
        )
        channel.mark_down()
        assert not channel.call_lookup().ok
        assert not channel.call_lookup().ok
        result = channel.call_lookup()  # breaker now open
        assert result.status is RpcStatus.CIRCUIT_OPEN
        assert result.attempts == 0
        assert result.elapsed_s == 0.0
        assert channel.stats.fast_failures == 1
        assert backend.lookups == 0

    def test_breaker_recovers_with_server(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(
            sim,
            backend,
            config=ChannelConfig(max_retries=0),
            breaker=CircuitBreaker(
                lambda: sim.now, failure_threshold=1, reset_timeout_s=2.0
            ),
        )
        Outage(sim, 0.0, 1.0, targets=[channel])
        outcomes = []
        sim.schedule_at(0.5, lambda: outcomes.append(channel.call_lookup().status))
        sim.schedule_at(1.5, lambda: outcomes.append(channel.call_lookup().status))
        sim.schedule_at(3.0, lambda: outcomes.append(channel.call_lookup().status))
        sim.run()
        assert outcomes == [
            RpcStatus.SERVER_DOWN,   # trips the breaker
            RpcStatus.CIRCUIT_OPEN,  # server is back but breaker still open
            RpcStatus.OK,            # half-open probe succeeds
        ]
        assert backend.lookups == 1


class TestBackoffJitter:
    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(backoff_jitter=-0.1)

    def test_jitter_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ControlChannel(
                sim, FakeBackend(), config=ChannelConfig(backoff_jitter=0.25)
            )

    def test_jitter_scales_retry_backoff(self):
        class TopRng(SeqRng):
            def uniform(self, low, high):
                return high

        sim = Simulator()
        cfg = ChannelConfig(
            loss_probability=0.4, max_retries=3, backoff_jitter=0.5
        )
        # Two losses, then success — two jittered backoffs at full swing.
        channel = ControlChannel(
            sim, FakeBackend(), config=cfg, rng=TopRng([0.1, 0.2, 0.9])
        )
        result = channel.call_lookup()
        assert result.ok and result.attempts == 3
        expected = (
            2 * cfg.timeout_s
            + 1.5 * (cfg.backoff_s(0) + cfg.backoff_s(1))
            + cfg.latency_s
        )
        assert result.elapsed_s == pytest.approx(expected)

    def test_zero_draw_matches_unjittered(self):
        """uniform() returning the low end reproduces the plain schedule —
        the jittered channel nests the deterministic one."""
        sim = Simulator()
        cfg = ChannelConfig(
            loss_probability=0.4, max_retries=3, backoff_jitter=0.5
        )
        channel = ControlChannel(
            sim, FakeBackend(), config=cfg, rng=SeqRng([0.1, 0.9])
        )
        result = channel.call_lookup()
        expected = cfg.timeout_s + cfg.backoff_s(0) + cfg.latency_s
        assert result.elapsed_s == pytest.approx(expected)
