"""The client <-> context-server control channel, with failures.

The paper's deployable design (Section 2.2.2) routes every connection
start through a lookup RPC and every connection end through a report RPC.
The reproduction originally modelled those as infallible function calls;
this module makes the channel a first-class, failure-aware component:

- per-attempt **latency** (with optional jitter) and **message loss**;
- **server outage windows**, driven by an
  :class:`repro.simnet.faults.Outage` via ``mark_down``/``mark_up``;
- per-call **timeout** plus bounded **exponential-backoff retry**,
  budgeted by a hard **deadline** so retries can never stall a
  connection start indefinitely;
- a **circuit breaker** that stops hammering a dead server after
  consecutive failures and probes it again after a cool-down.

RPC timing is *simulated*: each call happens atomically at the current
simulation instant, but the channel draws the latencies the attempts
would have taken and accounts them (attempts, elapsed time, outcome) in
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

from ..simnet.engine import Simulator
from ..telemetry import LATENCY_BUCKETS_S
from ..telemetry import session as _telemetry_session
from .server import ConnectionReport


class RpcStatus(Enum):
    """Terminal outcome of one control-channel call (after retries)."""

    OK = "ok"
    TIMEOUT = "timeout"            # every attempt lost or over-latency
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


def check_backoff(
    what: str, base_s: float, multiplier: float, max_s: float, jitter: float = 0.0
) -> None:
    """Reject parameters :func:`exponential_backoff_s` cannot use (NaN too:
    every check is one a NaN fails)."""
    if not (base_s >= 0 and max_s >= 0):
        raise ValueError(f"{what} bounds must be >= 0: {base_s}, {max_s}")
    if not multiplier >= 1:
        raise ValueError(f"{what} multiplier must be >= 1: {multiplier}")
    if not jitter >= 0:
        raise ValueError(f"{what} jitter must be >= 0: {jitter}")


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


@dataclass(frozen=True)
class ChannelConfig:
    """Timing and reliability knobs for the control channel.

    Attributes
    ----------
    latency_s:
        Baseline round-trip time of one RPC attempt.
    jitter_s:
        Uniform extra latency in [0, jitter_s) per attempt (needs an rng).
    loss_probability:
        Chance an attempt's request or response is lost (needs an rng).
    timeout_s:
        How long the client waits for an attempt before declaring it dead.
    max_retries:
        Extra attempts after the first (0 = single shot).
    backoff_base_s / backoff_multiplier / backoff_max_s:
        Exponential backoff between attempts: attempt ``k`` (0-based)
        waits ``min(base * multiplier**k, max)`` before retrying.
    backoff_jitter:
        Uniform multiplicative jitter on each backoff: the wait is
        scaled by ``1 + U[0, backoff_jitter)`` (needs an rng).  Without
        it, every sender that hit the same outage retries on the same
        deterministic schedule and stampedes the server the instant it
        recovers; with it the retry wave decorrelates while staying a
        pure function of the run's seed.
    deadline_s:
        Hard per-call budget.  A retry is only launched if, even in the
        worst case (full backoff plus a full timeout), the call would
        still finish inside the deadline — so a connection start is
        never delayed past it.
    """

    latency_s: float = 0.005
    jitter_s: float = 0.0
    loss_probability: float = 0.0
    timeout_s: float = 0.25
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 1.0
    backoff_jitter: float = 0.0
    deadline_s: float = 2.0

    def __post_init__(self) -> None:
        # Every check is one a NaN fails.
        if not (self.latency_s >= 0 and self.jitter_s >= 0):
            raise ValueError(
                f"latency/jitter must be >= 0: {self.latency_s}, {self.jitter_s}"
            )
        if not 0 <= self.loss_probability < 1:
            raise ValueError(
                f"loss probability must be in [0, 1): {self.loss_probability}"
            )
        if not self.timeout_s > 0:
            raise ValueError(f"timeout must be positive: {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        check_backoff(
            "backoff", self.backoff_base_s, self.backoff_multiplier,
            self.backoff_max_s, self.backoff_jitter,
        )
        if not self.deadline_s > 0:
            raise ValueError(f"deadline must be positive: {self.deadline_s}")

    @property
    def needs_rng(self) -> bool:
        """Whether a channel with this config draws random numbers."""
        return self.loss_probability > 0 or self.jitter_s > 0 or self.backoff_jitter > 0

    def backoff_s(self, attempt_index: int) -> float:
        """Unjittered backoff before retry number ``attempt_index`` (0-based)."""
        return exponential_backoff_s(
            self.backoff_base_s, self.backoff_multiplier, self.backoff_max_s, attempt_index
        )


class BreakerState(Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"        # normal operation
    OPEN = "open"            # failing fast, not calling the server
    HALF_OPEN = "half_open"  # cool-down elapsed; next call is a probe


class CircuitBreaker:
    """Trips after ``failure_threshold`` consecutive failures.

    While OPEN, calls fail immediately (no attempts, no time spent).
    After ``reset_timeout_s`` the breaker half-opens: one probe call is
    allowed through; success re-closes it, failure re-opens it for
    another cool-down.
    """

    def __init__(
        self,
        now: Callable[[], float],
        *,
        failure_threshold: int = 5,
        reset_timeout_s: float = 10.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1: {failure_threshold}")
        if reset_timeout_s <= 0:
            raise ValueError(f"reset_timeout_s must be positive: {reset_timeout_s}")
        self._now = now
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
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
            or self._consecutive_failures >= self.failure_threshold
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
            raise ValueError("loss/jitter simulation requires an rng")
        self.rng = rng
        self.breaker = breaker or CircuitBreaker(lambda: sim.now)
        #: Optional :class:`~repro.phi.corruption.CorruptionLayer`: the
        #: channel's *semantic* fault axis, alongside the loss/outage
        #: ones.  Applied to payloads of calls that succeed at the RPC
        #: level — a lookup answer corrupted in flight, a report poisoned
        #: by its sender — so transport health and payload truth fail
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
        cfg = self.config
        breaker = self.breaker
        elapsed = 0.0
        attempts = 0
        status = RpcStatus.TIMEOUT
        value = None
        while True:
            # A CLOSED breaker always allows: it is asked only when it is not.
            if breaker._state is not BreakerState.CLOSED and not breaker.allow():
                status = RpcStatus.CIRCUIT_OPEN
                break
            attempts += 1
            if self._down_marks:
                # Request goes unanswered: the attempt burns a timeout.
                elapsed += cfg.timeout_s
                status = RpcStatus.SERVER_DOWN
                breaker.record_failure()
            elif cfg.loss_probability > 0 and self.rng.random() < cfg.loss_probability:
                elapsed += cfg.timeout_s
                status = RpcStatus.TIMEOUT
                breaker.record_failure()
            else:
                latency = cfg.latency_s
                if cfg.jitter_s > 0:
                    latency += float(self.rng.uniform(0.0, cfg.jitter_s))
                if latency > cfg.timeout_s:
                    elapsed += cfg.timeout_s
                    status = RpcStatus.TIMEOUT
                    breaker.record_failure()
                else:
                    elapsed += latency
                    if breaker._consecutive_failures or breaker._state is not BreakerState.CLOSED:
                        breaker.record_success()  # a no-op on a clean CLOSED breaker
                    try:
                        value = fn(*args)
                        status = RpcStatus.OK
                    except OSError:
                        # A live server whose backend would not serve (e.g.
                        # QuorumUnavailable): final, since a retry in the
                        # same instant meets the same refusal.  Any other
                        # exception is a bug and propagates.
                        status = RpcStatus.REFUSED
                    break
            # Retry, if both the attempt count and the deadline allow a
            # worst-case (backoff + full timeout) follow-up attempt.
            if attempts > cfg.max_retries:
                break
            # Jitter scales the wait *before* the deadline check so a
            # jittered retry can never overrun the per-call budget.
            backoff = exponential_backoff_s(
                cfg.backoff_base_s, cfg.backoff_multiplier, cfg.backoff_max_s,
                attempts - 1, cfg.backoff_jitter, self.rng,
            )
            if elapsed + backoff + cfg.timeout_s > cfg.deadline_s:
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
