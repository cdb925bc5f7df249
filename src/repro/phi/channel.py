"""The client <-> context-server control channel, with failures.

The paper's deployable design (Section 2.2.2) routes every connection
start through a lookup RPC and every connection end through a report RPC.
The reproduction originally modelled those as infallible function calls;
this module makes the channel a first-class, failure-aware component:

- a fixed per-attempt **latency** (:data:`RPC_LATENCY_S`);
- **server outage windows**, driven by an
  :class:`repro.simnet.faults.Outage` via ``mark_down``/``mark_up``;
- per-call **timeout** plus bounded **exponential-backoff retry**,
  budgeted by a hard **deadline** so retries can never stall a
  connection start indefinitely;
- a **circuit breaker** that stops hammering a dead server after
  consecutive failures and probes it again after a cool-down.

RPC timing is *simulated*: each call happens atomically at the current
simulation instant, but the channel adds up the latencies, timeouts and
backoffs the attempts would have taken and accounts them (attempts, elapsed time, outcome) in
the returned :class:`RpcResult`.

The result's status is the one way a call reports failure, to the
failover channel and the resilient client above alike.  A backend that
raises ``OSError`` (e.g. a replica refusing a QUORUM read) ends the call
as ``REFUSED``; any other exception is a bug and propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..telemetry import LATENCY_BUCKETS_S
from ..telemetry import session as _telemetry_session
from .server import ConnectionReport


class RpcStatus(Enum):
    """Terminal outcome of one control-channel call (after retries)."""

    OK = "ok"
    SERVER_DOWN = "server_down"    # server unavailable for every attempt
    DEADLINE_EXCEEDED = "deadline" # retry budget exhausted before success
    CIRCUIT_OPEN = "circuit_open"  # failed fast; breaker is open
    REFUSED = "backend_error"      # reached, but the backend raised OSError


class RpcResult(NamedTuple):
    """What one call cost and how it ended (a tuple: one frame to build)."""

    status: RpcStatus
    attempts: int
    elapsed_s: float
    value: Any = None

    @property
    def ok(self) -> bool:
        return self.status is RpcStatus.OK


def exponential_backoff_s(
    base_s: float, multiplier: float, max_s: float, k: int, jitter: float = 0.0, rng=None
) -> float:
    """The wait after the ``k``-th consecutive failure (0-based).

    ``min(max_s, base_s * multiplier**k)``, scaled by ``1 + U[0, jitter)``
    drawn from ``rng`` when ``jitter > 0``.  The one backoff formula:
    channel retries, replica suspensions (:mod:`repro.phi.failover`) and
    the sweep supervisor's point retries
    (:mod:`repro.runner.resilience`) all wait this long.
    """
    wait = min(max_s, base_s * multiplier ** k)
    if jitter > 0:
        wait *= 1.0 + float(rng.uniform(0.0, jitter))
    return wait


#: Round trip of one RPC attempt: a server inside the sender's own domain.
RPC_LATENCY_S = 0.005
#: How long a client waits for an attempt before declaring it dead.
RPC_TIMEOUT_S = 0.25
#: Extra attempts after the first.
RPC_MAX_RETRIES = 3
#: Exponential backoff between attempts: attempt ``k`` (0-based) waits
#: ``min(base * multiplier**k, max)`` before retrying.
RPC_BACKOFF_BASE_S = 0.05
RPC_BACKOFF_MULTIPLIER = 2.0
RPC_BACKOFF_MAX_S = 1.0
#: Hard per-call budget.  A retry is only launched if, even in the worst
#: case (full backoff plus a full timeout), the call would still finish
#: inside it, so a connection start is never delayed past it.
RPC_DEADLINE_S = 2.0
#: Consecutive failures that trip a closed breaker: one more than a
#: call's attempts, so one failed call alone never does.
BREAKER_FAILURE_THRESHOLD = 5


@dataclass(frozen=True)
class ChannelConfig:
    """The control channel's one per-deployment knob.

    Attributes
    ----------
    backoff_jitter:
        Uniform multiplicative jitter on each retry backoff: the wait is
        scaled by ``1 + U[0, backoff_jitter)`` (needs an rng).  Without
        it, every sender that hit the same outage retries on the same
        deterministic schedule and stampedes the server the instant it
        recovers; with it the retry wave decorrelates while staying a
        pure function of the run's seed.
    """

    backoff_jitter: float = 0.0

    def __post_init__(self) -> None:
        check("backoff_jitter", self.backoff_jitter, ge=0)

    @property
    def needs_rng(self) -> bool:
        """Whether a channel with this config draws random numbers."""
        return self.backoff_jitter > 0


class BreakerState(Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"        # normal operation
    OPEN = "open"            # failing fast, not calling the server
    HALF_OPEN = "half_open"  # cool-down elapsed; next call is a probe


class CircuitBreaker:
    """Trips after :data:`BREAKER_FAILURE_THRESHOLD` consecutive failures.

    While OPEN, calls fail immediately (no attempts, no time spent).
    After ``reset_timeout_s`` the breaker half-opens: one probe call is
    allowed through; success re-closes it, failure re-opens it for
    another cool-down.
    """

    def __init__(
        self,
        now: Callable[[], float],
        *,
        reset_timeout_s: float = 10.0,
    ) -> None:
        self._now = now
        self.reset_timeout_s = check("reset_timeout_s", reset_timeout_s, gt=0)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0

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
            if self._state is not BreakerState.OPEN:
                self.trips += 1
            self._set_state(BreakerState.OPEN)
            self._opened_at = self._now()
            self._consecutive_failures = 0


@dataclass
class ChannelStats:
    """Cumulative accounting across every call on one channel."""

    calls: int = 0
    successes: int = 0
    failures: int = 0
    attempts: int = 0
    retries: int = 0
    fast_failures: int = 0  # rejected by the open breaker
    rpc_time_s: float = 0.0
    by_status: dict = field(default_factory=dict)

    def record(self, result: RpcResult) -> None:
        status = result.status
        self.calls += 1
        self.attempts += result.attempts
        self.retries += max(0, result.attempts - 1)
        self.rpc_time_s += result.elapsed_s
        if status is RpcStatus.OK:
            self.successes += 1
        else:
            self.failures += 1
            if status is RpcStatus.CIRCUIT_OPEN:
                self.fast_failures += 1
        key = status._value_  # ``.value`` is a property: a Python frame
        self.by_status[key] = self.by_status.get(key, 0) + 1


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
        rng=None,
        breaker: Optional[CircuitBreaker] = None,
        corruption=None,
    ) -> None:
        self.sim = sim
        self.backend = backend
        self.config = config or ChannelConfig()
        if rng is None and self.config.needs_rng:
            raise ValueError("backoff jitter requires an rng")
        self.rng = rng
        self.breaker = breaker or CircuitBreaker(lambda: sim.now)
        #: Optional :class:`~repro.phi.corruption.CorruptionLayer`: the
        #: channel's *semantic* fault axis, alongside the outage one.
        #: Applied to payloads of calls that succeed at the RPC level — a
        #: lookup answer corrupted in flight, a report poisoned by its
        #: sender — so transport health and payload truth fail
        #: independently, as they do in practice.
        self.corruption = corruption
        self.stats = ChannelStats()
        self._down_marks = 0

    # ------------------------------------------------------------------
    # Availability (driven by Outage faults)
    # ------------------------------------------------------------------
    @property
    def server_up(self) -> bool:
        """Whether the backend is reachable at this instant."""
        return self._down_marks == 0

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

    # ------------------------------------------------------------------
    # Attempt/retry machinery
    # ------------------------------------------------------------------
    def _call(self, fn: Callable[..., Any], op: str = "call", *args: Any) -> RpcResult:
        """``fn(*args)`` behind retries, outages and the breaker; the one
        terminal outcome is accounted (stats and telemetry) on the way out."""
        jitter = self.config.backoff_jitter
        breaker = self.breaker
        elapsed = 0.0
        attempts = 0
        value = None
        while True:
            # A CLOSED breaker always allows: it is asked only when it is not.
            if breaker._state is not BreakerState.CLOSED and not breaker.allow():
                status = RpcStatus.CIRCUIT_OPEN
                break
            attempts += 1
            if not self._down_marks:
                elapsed += RPC_LATENCY_S
                if breaker._consecutive_failures or breaker._state is not BreakerState.CLOSED:
                    breaker.record_success()  # a no-op on a clean CLOSED breaker
                try:
                    value = fn(*args)
                    status = RpcStatus.OK
                except OSError:
                    # A live server whose backend would not serve (e.g.
                    # QuorumUnavailable): final, since a retry in the same
                    # instant meets the same refusal.  Any other exception
                    # is a bug and propagates.
                    status = RpcStatus.REFUSED
                break
            # Request goes unanswered: the attempt burns a timeout.
            elapsed += RPC_TIMEOUT_S
            status = RpcStatus.SERVER_DOWN
            breaker.record_failure()
            # Retry, if both the attempt count and the deadline allow a
            # worst-case (backoff + full timeout) follow-up attempt.
            if attempts > RPC_MAX_RETRIES:
                break
            # Jitter scales the wait *before* the deadline check so a
            # jittered retry can never overrun the per-call budget.
            backoff = exponential_backoff_s(
                RPC_BACKOFF_BASE_S, RPC_BACKOFF_MULTIPLIER, RPC_BACKOFF_MAX_S,
                attempts - 1, jitter, self.rng,
            )
            if elapsed + backoff + RPC_TIMEOUT_S > RPC_DEADLINE_S:
                status = RpcStatus.DEADLINE_EXCEEDED
                break
            elapsed += backoff
        result = RpcResult(status, attempts, elapsed, value)
        self.stats.record(result)
        tele = _telemetry_session()
        if tele.enabled:
            registry = tele.registry
            registry.counter("phi.rpc_calls", op=op, status=status.value).inc()
            if attempts > 1:
                registry.counter("phi.rpc_retries", op=op).inc(attempts - 1)
            registry.histogram("phi.rpc_latency_s", LATENCY_BUCKETS_S, op=op).observe(
                elapsed
            )
        rec = tele.flightrec
        if rec.enabled:
            rec.phi(
                "rpc", self.sim.now, op,
                detail={"status": status.value, "attempts": attempts, "elapsed_s": elapsed},
            )
        return result
