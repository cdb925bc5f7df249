"""Direct tests for breaker state edges, ChannelStats, and RPC telemetry."""

import pytest

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import (
    BREAKER_FAILURE_THRESHOLD,
    RPC_MAX_RETRIES,
    BreakerState,
    ChannelStats,
    CircuitBreaker,
    ControlChannel,
    RpcResult,
    RpcStatus,
)
from repro.phi.context import CongestionContext
from repro.simnet import Simulator


class _Clock:
    """Manually advanced wall clock for driving the breaker."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _tripped_breaker(clock, reset=10.0):
    breaker = CircuitBreaker(clock, reset_timeout_s=reset)
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


class TestCircuitBreakerEdges:
    def test_closed_to_open_needs_consecutive_failures(self):
        clock = _Clock()
        breaker = CircuitBreaker(clock)
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_open_decays_to_half_open_after_cooldown(self):
        clock = _Clock()
        breaker = _tripped_breaker(clock, reset=10.0)
        clock.t = 9.999
        assert breaker.state is BreakerState.OPEN
        clock.t = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()

    def test_half_open_probe_success_closes(self):
        clock = _Clock()
        breaker = _tripped_breaker(clock)
        clock.t = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens_and_counts_a_trip(self):
        clock = _Clock()
        breaker = _tripped_breaker(clock)
        clock.t = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()  # one failure suffices in HALF_OPEN
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        # Cool-down restarts from the re-open instant.
        clock.t = 19.0
        assert breaker.state is BreakerState.OPEN
        clock.t = 20.0
        assert breaker.state is BreakerState.HALF_OPEN

    def test_validation(self):
        clock = _Clock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, reset_timeout_s=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, reset_timeout_s=float("nan"))

    def test_transition_counters(self):
        clock = _Clock()
        with telemetry.use() as tele:
            breaker = _tripped_breaker(clock)          # closed -> open
            clock.t = 10.0
            assert breaker.state is BreakerState.HALF_OPEN  # open -> half_open
            breaker.record_failure()                   # half_open -> open
            clock.t = 20.0
            assert breaker.state is BreakerState.HALF_OPEN  # open -> half_open
            breaker.record_success()                   # half_open -> closed
            counters = tele.registry.snapshot()["counters"]
        def edge(src, dst):
            return counters.get(
                f"phi.breaker_transitions{{from_state={src},to_state={dst}}}", 0.0
            )
        assert edge("closed", "open") == 1.0
        assert edge("open", "half_open") == 2.0
        assert edge("half_open", "open") == 1.0
        assert edge("half_open", "closed") == 1.0

    def test_no_counter_for_noop_transition(self):
        clock = _Clock()
        with telemetry.use() as tele:
            breaker = CircuitBreaker(clock)
            breaker.record_success()  # CLOSED -> CLOSED: not an edge
            assert tele.registry.snapshot()["counters"] == {}
            assert breaker.state is BreakerState.CLOSED


class TestChannelStats:
    def test_success_accounting(self):
        stats = ChannelStats()
        stats.record(RpcResult(RpcStatus.OK, attempts=1, elapsed_s=0.005))
        stats.record(RpcResult(RpcStatus.OK, attempts=3, elapsed_s=0.105))
        assert stats.calls == 2
        assert stats.successes == 2
        assert stats.failures == 0
        assert stats.attempts == 4
        assert stats.retries == 2
        assert stats.rpc_time_s == pytest.approx(0.110)
        assert stats.by_status == {"ok": 2}

    def test_failure_accounting_by_status(self):
        stats = ChannelStats()
        stats.record(RpcResult(RpcStatus.DEADLINE_EXCEEDED, attempts=4, elapsed_s=1.0))
        stats.record(RpcResult(RpcStatus.SERVER_DOWN, attempts=2, elapsed_s=0.5))
        stats.record(RpcResult(RpcStatus.CIRCUIT_OPEN, attempts=0, elapsed_s=0.0))
        assert stats.calls == 3
        assert stats.successes == 0
        assert stats.failures == 3
        assert stats.fast_failures == 1  # only the breaker rejection
        assert stats.attempts == 6
        assert stats.retries == 3 + 1
        assert stats.by_status == {"deadline": 1, "server_down": 1, "circuit_open": 1}


class _Backend:
    def __init__(self) -> None:
        self.lookups = 0

    def lookup(self):
        self.lookups += 1
        return CongestionContext.idle()


class TestChannelTelemetry:
    def _channel(self):
        sim = Simulator()
        return sim, ControlChannel(sim, _Backend())

    def test_rpc_metrics_for_mixed_outcomes(self):
        with telemetry.use() as tele, flightrec.use() as rec:
            sim, channel = self._channel()
            channel.call_lookup()  # ok
            channel.mark_down()
            channel.call_lookup()  # server_down after every attempt
            snapshot = tele.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["phi.rpc_calls{op=lookup,status=ok}"] == 1.0
        assert counters["phi.rpc_calls{op=lookup,status=server_down}"] == 1.0
        assert counters["phi.rpc_retries{op=lookup}"] == RPC_MAX_RETRIES
        histogram = snapshot["histograms"]["phi.rpc_latency_s{op=lookup}"]
        assert histogram["count"] == 2
        # Every terminal outcome is on the recorder's phi ring; the
        # failed one carries its status, attempts and sim time.
        ok, failed = iter_layer(rec.records(), "phi")
        assert (ok["kind"], ok["subject"]) == ("rpc", "lookup")
        assert ok["detail"]["status"] == "ok"
        assert failed["detail"]["status"] == "server_down"
        assert failed["detail"]["attempts"] == RPC_MAX_RETRIES + 1
        assert failed["t"] == sim.now

    def test_channel_works_with_telemetry_disabled(self):
        assert not telemetry.session().enabled
        _, channel = self._channel()
        assert channel.call_lookup().ok
        assert channel.stats.calls == 1
