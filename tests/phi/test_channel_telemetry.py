"""Direct tests for breaker state edges, channel accounting, and RPC telemetry."""

import pytest

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import (
    BREAKER_FAILURE_THRESHOLD,
    BreakerState,
    CircuitBreaker,
    ControlChannel,
    RpcStatus,
)
from repro.simnet import Simulator

from .conftest import IDLE


class _Clock:
    """Manually advanced wall clock for driving the breaker."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _tripped_breaker(clock, reset=10.0):
    breaker = CircuitBreaker(clock, reset)
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


class TestCircuitBreakerEdges:
    def test_closed_to_open_needs_consecutive_failures(self):
        clock = _Clock()
        breaker = CircuitBreaker(clock, 10.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
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
        with telemetry.use() as tele:
            breaker.record_failure()  # one failure suffices in HALF_OPEN
            counters = tele.registry.snapshot()["counters"]
        assert breaker.state is BreakerState.OPEN
        assert counters == {"phi.breaker_transitions{from_state=half_open,to_state=open}": 1.0}
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
            breaker = CircuitBreaker(clock, 10.0)
            breaker.record_success()  # CLOSED -> CLOSED: not an edge
            assert tele.registry.snapshot()["counters"] == {}
            assert breaker.state is BreakerState.CLOSED


class _Backend:
    def __init__(self) -> None:
        self.lookups = 0

    def lookup(self):
        self.lookups += 1
        return IDLE


class TestChannelStats:
    """The channel's own count is ``fast_failures``; every outcome is a
    ``phi.rpc_calls`` counter by status."""

    def test_success_accounting(self):
        with telemetry.use() as tele:
            channel = ControlChannel(Simulator(), _Backend())
            statuses = [channel.call_lookup().status for _ in range(2)]
            assert statuses == [RpcStatus.OK, RpcStatus.OK]
            counters = tele.registry.snapshot()["counters"]
        assert counters == {"phi.rpc_calls{op=lookup,status=ok}": 2.0}
        assert channel.fast_failures == 0

    def test_failure_accounting_by_status(self):
        with telemetry.use() as tele:
            channel = ControlChannel(Simulator(), _Backend())
            channel.mark_down()
            statuses = [channel.call_lookup().status for _ in range(BREAKER_FAILURE_THRESHOLD + 1)]
            counters = tele.registry.snapshot()["counters"]
        assert statuses[-1] is RpcStatus.CIRCUIT_OPEN
        assert {k: v for k, v in counters.items() if k.startswith("phi.rpc_calls")} == {
            "phi.rpc_calls{op=lookup,status=server_down}": float(BREAKER_FAILURE_THRESHOLD),
            "phi.rpc_calls{op=lookup,status=circuit_open}": 1.0,
        }
        assert channel.fast_failures == 1  # only the breaker's


class TestChannelTelemetry:
    def _channel(self):
        sim = Simulator()
        return sim, ControlChannel(sim, _Backend())

    def test_rpc_metrics_for_mixed_outcomes(self):
        with telemetry.use() as tele, flightrec.use() as rec:
            sim, channel = self._channel()
            channel.call_lookup()  # ok
            channel.mark_down()
            channel.call_lookup()  # server_down: the breaker still closed
            channel.call_lookup()  # server_down: trips the breaker
            channel.call_lookup()  # circuit_open: refused without an attempt
            snapshot = tele.registry.snapshot()
        counters = snapshot["counters"]
        assert counters == {
            "phi.rpc_calls{op=lookup,status=ok}": 1.0,
            "phi.rpc_calls{op=lookup,status=server_down}": 2.0,
            "phi.rpc_calls{op=lookup,status=circuit_open}": 1.0,
            "phi.breaker_transitions{from_state=closed,to_state=open}": 1.0,
        }
        assert snapshot["histograms"] == {}
        # Every outcome is on the recorder's phi ring with its status and
        # sim time, the breaker's edge between them.
        records = list(iter_layer(rec.records(), "phi"))
        assert [(r["kind"], r["subject"]) for r in records] == [
            ("rpc", "lookup"), ("rpc", "lookup"), ("breaker", "breaker"),
            ("rpc", "lookup"), ("rpc", "lookup"),
        ]
        statuses = [r["detail"]["status"] for r in records if r["kind"] == "rpc"]
        assert statuses == ["ok", "server_down", "server_down", "circuit_open"]
        assert all(r["t"] == sim.now for r in records)

    def test_channel_works_with_telemetry_disabled(self):
        assert not telemetry.session().enabled
        _, channel = self._channel()
        assert channel.call_lookup().status is RpcStatus.OK
        assert channel.fast_failures == 0
