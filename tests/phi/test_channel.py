"""Tests for the failure-aware control channel (RPCs, outages, breaker)."""

import pytest

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import (
    BREAKER_FAILURE_THRESHOLD,
    BreakerState,
    ChannelConfig,
    CircuitBreaker,
    ControlChannel,
    RpcResult,
    RpcStatus,
    exponential_backoff_s,
)
from repro.phi.server import ContextServer
from repro.simnet import Outage, Simulator

from .conftest import IDLE


class FakeBackend:
    """Records protocol calls; always answers."""

    def __init__(self):
        self.lookups = 0
        self.reports = []

    def lookup(self):
        self.lookups += 1
        return IDLE

    def report(self, report):
        self.reports.append(report)


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
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                ChannelConfig(breaker_reset_s=bad)

    def test_backoff_schedule(self):
        def backoff(k):
            return exponential_backoff_s(0.05, 2.0, 1.0, k)

        assert backoff(0) == pytest.approx(0.05)
        assert backoff(1) == pytest.approx(0.1)
        assert backoff(2) == pytest.approx(0.2)
        assert backoff(5) == pytest.approx(1.0)  # capped
        assert backoff(9) == pytest.approx(1.0)


class TestHealthyChannel:
    def test_passthrough_lookup_and_report(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        ctx = channel.call_lookup().value
        assert backend.lookups == 1
        assert ctx.utilization == 0.0
        assert channel.call_report(make_report()).status is RpcStatus.OK
        assert len(backend.reports) == 1

    def test_result_accounting(self):
        with flightrec.use() as rec:
            channel = ControlChannel(Simulator(), FakeBackend())
            result = channel.call_lookup()
        assert result.status is RpcStatus.OK and result.value == IDLE
        (record,) = iter_layer(rec.records(), "phi")
        assert (record["kind"], record["detail"]) == ("rpc", {"status": "ok"})

    def test_works_against_real_server(self):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        channel = ControlChannel(sim, server)
        assert channel.call_lookup().status is RpcStatus.OK
        assert server.current_context().competing_senders == 1


class TestRetries:
    """A call makes one attempt: RPC time is not simulated, so a retry in
    the same instant would meet the same down-mark."""

    def test_exhausted_retries_fail(self):
        # The retry budget is zero: a failed call is one failed attempt,
        # and the breaker counts it once.
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        channel.mark_down()
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        assert channel.breaker._consecutive_failures == 1

    def test_failed_call_returns_its_status(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        channel.mark_down()
        result = channel.call_lookup()
        assert result == RpcResult(RpcStatus.SERVER_DOWN)
        assert channel.breaker.state is BreakerState.CLOSED  # one failure
        assert backend.lookups == 0


class TestBackendRefusal:
    """A backend that raises is a bug: the exception propagates, an
    ``OSError`` as much as any other."""

    def test_other_exceptions_propagate(self):
        for error in (KeyError("not a refusal"), ConnectionError("no server")):
            class BuggyBackend(FakeBackend):
                def lookup(self, error=error):
                    raise error

            channel = ControlChannel(Simulator(), BuggyBackend())
            with pytest.raises(type(error)):
                channel.call_lookup()

    def test_a_raising_report_propagates(self):
        class BuggyBackend(FakeBackend):
            def report(self, report):
                raise ConnectionError("no server")

        channel = ControlChannel(Simulator(), BuggyBackend())
        with pytest.raises(ConnectionError):
            channel.call_report(make_report())

    def test_a_raising_call_records_no_outcome(self):
        class BuggyBackend(FakeBackend):
            def lookup(self):
                raise ConnectionError("no server")

        with telemetry.use() as tele, flightrec.use() as rec:
            channel = ControlChannel(Simulator(), BuggyBackend())
            with pytest.raises(ConnectionError):
                channel.call_lookup()
            counters = tele.registry.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("phi.rpc_calls")]
        assert [r for r in iter_layer(rec.records(), "phi") if r["kind"] == "rpc"] == []


class TestOutages:
    def test_marks_nest(self):
        # One failed call at a time: the breaker (2 in a row) stays closed.
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        channel.mark_down()
        channel.mark_down()
        channel.mark_up()
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        channel.mark_up()
        assert channel.call_lookup().status is RpcStatus.OK
        channel.mark_up()  # extra up is a no-op
        assert channel.call_lookup().status is RpcStatus.OK

    def test_scheduled_outage_window(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        Outage(sim, 1.0, 2.0, targets=[channel])
        outcomes = {}
        for at, label in ((0.5, "before"), (2.0, "during"), (3.5, "after")):
            sim.schedule_at(
                at, lambda label=label: outcomes.update(
                    {label: channel.call_lookup().status is RpcStatus.OK})
            )
        sim.run()
        assert outcomes == {"before": True, "during": False, "after": True}

    def test_outage_starting_now_takes_effect_immediately(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        Outage(sim, 0.0, 1.0, targets=[channel])
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        sim.run(until=1.5)
        assert channel.call_lookup().status is RpcStatus.OK

    def test_server_outage_fault_drives_channel(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        Outage(sim, 1.0, 1.0, targets=[channel])
        sim.run(until=1.5)
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        sim.run(until=2.5)
        assert channel.call_lookup().status is RpcStatus.OK


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        sim = Simulator()
        breaker = CircuitBreaker(lambda: sim.now, 10.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_count(self):
        sim = Simulator()
        breaker = CircuitBreaker(lambda: sim.now, 10.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        sim = Simulator()
        breaker = CircuitBreaker(lambda: sim.now, reset_timeout_s=5.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD):
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
        breaker = CircuitBreaker(lambda: sim.now, reset_timeout_s=5.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure()
        sim.schedule(6.0, lambda: None)
        sim.run()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()  # probe fails: straight back to OPEN
        assert breaker.state is BreakerState.OPEN
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert breaker.state is BreakerState.OPEN  # a fresh cool-down

    def test_open_breaker_fails_fast_without_attempts(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        channel.mark_down()
        # Every failed call is one failed attempt; the second trips the
        # breaker and still reports the down server it reached.
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        assert channel.breaker.state is BreakerState.OPEN
        result = channel.call_lookup()  # breaker now open
        assert result == RpcResult(RpcStatus.CIRCUIT_OPEN)
        assert channel.fast_failures == 1
        assert backend.lookups == 0

    def test_breaker_recovers_with_server(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend, config=ChannelConfig(breaker_reset_s=2.0))
        Outage(sim, 0.0, 1.0, targets=[channel])
        outcomes = []
        for at in (0.4, 0.5, 0.6, 1.5, 3.0):
            sim.schedule_at(at, lambda: outcomes.append(channel.call_lookup().status))
        sim.run()
        assert outcomes == [
            RpcStatus.SERVER_DOWN,   # one failed call
            RpcStatus.SERVER_DOWN,   # the second failed call trips the breaker
            RpcStatus.CIRCUIT_OPEN,  # refused without an attempt
            RpcStatus.CIRCUIT_OPEN,  # server is back but breaker still open
            RpcStatus.OK,            # half-open probe succeeds
        ]
        assert backend.lookups == 1
