"""The client <-> context-server control channel, with failures.

The paper's deployable design (Section 2.2.2) routes every connection
start through a lookup RPC and every connection end through a report RPC.
This module makes each a fallible call:

- **server outage windows**, driven by an
  :class:`repro.simnet.faults.Outage` via ``mark_down``/``mark_up``;
- one **attempt** per call: RPC time is not simulated, so a call runs
  at the current simulation instant, where a retry would meet the same
  down-mark and fail the same way;
- a **circuit breaker** that stops calling a dead server after
  consecutive failed calls and probes it again after a cool-down.

The returned :class:`RpcResult`'s status is the one way a call reports
failure, to the failover channel and the resilient client above alike.
A backend that raises is a bug, and the exception propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..telemetry import session as _telemetry_session
from .server import ConnectionReport


class RpcStatus(Enum):
    """Outcome of one control-channel call."""

    OK = "ok"
    SERVER_DOWN = "server_down"    # the server was down when called
    CIRCUIT_OPEN = "circuit_open"  # refused without an attempt: breaker open


class RpcResult(NamedTuple):
    """How one call ended, and its answer (a tuple: one frame to build)."""

    status: RpcStatus
    value: Any = None


def exponential_backoff_s(
    base_s: float, multiplier: float, max_s: float, k: int, jitter: float = 0.0, rng=None
) -> float:
    """The wait after the ``k``-th consecutive failure (0-based).

    ``min(max_s, base_s * multiplier**k)``, scaled by ``1 + U[0, jitter)``
    drawn from ``rng`` when ``jitter > 0``.  The one backoff formula:
    replica suspensions (:mod:`repro.phi.failover`) and the sweep
    supervisor's point retries (:mod:`repro.runner.resilience`) both
    wait this long.
    """
    wait = min(max_s, base_s * multiplier ** k)
    if jitter > 0:
        wait *= 1.0 + float(rng.uniform(0.0, jitter))
    return wait


#: Consecutive failed calls that trip a closed breaker: one failed call
#: alone never does.
BREAKER_FAILURE_THRESHOLD = 2


@dataclass(frozen=True)
class ChannelConfig:
    """The control channel's one per-deployment knob.

    Attributes
    ----------
    breaker_reset_s:
        The circuit breaker's cool-down: how long it stays OPEN before it
        half-opens and lets one probe call through.
    """

    breaker_reset_s: float = 10.0

    def __post_init__(self) -> None:
        check("breaker_reset_s", self.breaker_reset_s, gt=0)


class BreakerState(Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"        # normal operation
    OPEN = "open"            # failing fast, not calling the server
    HALF_OPEN = "half_open"  # cool-down elapsed; next call is a probe


class CircuitBreaker:
    """Trips after :data:`BREAKER_FAILURE_THRESHOLD` consecutive failures.

    While OPEN, calls fail immediately, without an attempt.  After
    ``reset_timeout_s`` the breaker half-opens: one probe call is
    allowed through; success re-closes it, failure re-opens it for
    another cool-down.
    """

    def __init__(self, now: Callable[[], float], reset_timeout_s: float) -> None:
        self._now = now
        self.reset_timeout_s = check("reset_timeout_s", reset_timeout_s, gt=0)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> BreakerState:
        """Current state (OPEN lazily decays to HALF_OPEN after cool-down)."""
        if (
            self._state is BreakerState.OPEN
            and self._now() - self._opened_at >= self.reset_timeout_s
        ):
            self._set_state(BreakerState.HALF_OPEN)
        return self._state

    def _set_state(self, new_state: BreakerState) -> None:
        """Single funnel for state changes, so every edge is countable."""
        if new_state is self._state:
            return
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter(
                "phi.breaker_transitions",
                from_state=self._state.value,
                to_state=new_state.value,
            ).inc()
        rec = tele.flightrec
        if rec.enabled:
            rec.phi(
                "breaker", self._now(), "breaker",
                detail={"from": self._state.value, "to": new_state.value},
            )
        self._state = new_state

    def allow(self) -> bool:
        """Whether a call may reach the server right now."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._set_state(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.HALF_OPEN
            or self._consecutive_failures >= BREAKER_FAILURE_THRESHOLD
        ):
            self._set_state(BreakerState.OPEN)
            self._opened_at = self._now()
            self._consecutive_failures = 0


class ControlChannel:
    """Failure-aware RPC front for any ``ContextSource`` backend.

    :meth:`call_lookup` / :meth:`call_report` return an
    :class:`RpcResult` and raise only on a programming bug.

    Availability is a down-mark *counter* so overlapping
    :class:`~repro.simnet.faults.Outage` windows nest correctly.
    """

    def __init__(
        self,
        sim: Simulator,
        backend,
        *,
        config: Optional[ChannelConfig] = None,
        corruption=None,
    ) -> None:
        self.sim = sim
        self.backend = backend
        config = config or ChannelConfig()
        self.breaker = CircuitBreaker(lambda: sim.now, config.breaker_reset_s)
        #: Optional :class:`~repro.phi.corruption.CorruptionLayer`: the
        #: channel's *semantic* fault axis, alongside the outage one.
        #: Applied to payloads of calls that succeed at the RPC level — a
        #: lookup answer corrupted in flight, a report poisoned by its
        #: sender — so transport health and payload truth fail
        #: independently, as they do in practice.
        self.corruption = corruption
        #: Calls the open breaker refused without an attempt.
        self.fast_failures = 0
        self._down_marks = 0

    # ------------------------------------------------------------------
    # Availability (driven by Outage faults)
    # ------------------------------------------------------------------
    def mark_down(self) -> None:
        """One more reason the server is unreachable (outage begin)."""
        self._down_marks += 1

    def mark_up(self) -> None:
        """One outage ended; the server recovers when all have."""
        if self._down_marks > 0:
            self._down_marks -= 1

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    def call_lookup(self) -> RpcResult:
        """Connection-start lookup as a fallible RPC."""
        if self.corruption is None:
            return self._call(self.backend.lookup, "lookup")
        return self._call(
            lambda: self.corruption.corrupt_context(self.backend.lookup()), "lookup"
        )

    def call_report(self, report: ConnectionReport) -> RpcResult:
        """Connection-end report as a fallible RPC."""
        if self.corruption is not None:
            report = self.corruption.corrupt_report(report)
        return self._call(self.backend.report, "report", report)

    def _call(self, fn: Callable[..., Any], op: str, *args: Any) -> RpcResult:
        """``fn(*args)`` behind the outage marks and the breaker, in one
        attempt; the outcome is accounted (telemetry, recorder) on the way out."""
        breaker = self.breaker
        value = None
        # A CLOSED breaker always allows: it is asked only when it is not.
        if breaker._state is not BreakerState.CLOSED and not breaker.allow():
            status = RpcStatus.CIRCUIT_OPEN
            self.fast_failures += 1
        elif self._down_marks:
            status = RpcStatus.SERVER_DOWN
            breaker.record_failure()
        else:
            if breaker._consecutive_failures or breaker._state is not BreakerState.CLOSED:
                breaker.record_success()  # a no-op on a clean CLOSED breaker
            value = fn(*args)
            status = RpcStatus.OK
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter("phi.rpc_calls", op=op, status=status.value).inc()
        rec = tele.flightrec
        if rec.enabled:
            rec.phi("rpc", self.sim.now, op, detail={"status": status.value})
        return RpcResult(status, value)
