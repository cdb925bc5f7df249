"""Client-side failover across a replicated control plane.

A sender reaches each replica through its own
:class:`~repro.phi.channel.ControlChannel` (latency, loss, outages,
retries, breaker — all per replica).  The :class:`FailoverChannel` sits
on top and decides *which* replica to ask:

- **health scoring**: every observed RPC outcome folds into a per-replica
  EWMA score, so replica choice is driven by what the client actually
  experienced, not by any global view;
- **failover**: when an attempt's result is not OK (timeout, server
  down, breaker open, or ``REFUSED`` by a backend such as a replica
  without quorum), the call moves on to the next-best replica within
  the same simulated instant — RPC time is accounted, never simulated,
  exactly like the underlying channel;
- **suspension with jittered backoff**: a failed replica is benched for
  an exponentially growing window scaled by ``1 + U[0, jitter)`` drawn
  from the sim RNG, so a thousand clients whose replica died together do
  not stampede it the instant it heals — and the run stays a pure
  function of its seed;
- **sticky-with-probation reselection**: the client sticks to its
  current replica while it works; a replica coming off suspension must
  answer ``probation_successes`` calls before it can become the sticky
  choice again, so one lucky probe does not yank the whole client back
  to a flapping replica.

The channel exposes the same ``call_lookup``/``call_report`` surface as
:class:`ControlChannel`, returning :class:`RpcResult`, so a
:class:`~repro.phi.fallback.ResilientContextClient` wraps either one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..simnet.engine import Simulator
from ..telemetry import session as _telemetry_session
from .channel import (
    ControlChannel,
    RpcResult,
    RpcStatus,
    check_backoff,
    exponential_backoff_s,
)
from .server import ConnectionReport


@dataclass(frozen=True)
class FailoverConfig:
    """Health, suspension, and stickiness knobs.

    Attributes
    ----------
    health_alpha:
        EWMA weight of the latest outcome in a replica's health score
        (1 = healthy, 0 = hopeless).
    suspend_base_s / suspend_multiplier / suspend_max_s:
        A replica's ``k``-th consecutive failure benches it for
        ``min(base * multiplier**(k-1), max)`` seconds (before jitter).
    suspend_jitter:
        Uniform multiplicative jitter on the suspension window:
        scaled by ``1 + U[0, suspend_jitter)``, drawn from the sim RNG
        (required when > 0) so recovery probes decorrelate across
        clients while staying reproducible.
    probation_successes:
        Successful calls a replica coming off suspension must serve
        before it can be reselected as the sticky current replica.
    """

    health_alpha: float = 0.3
    suspend_base_s: float = 0.5
    suspend_multiplier: float = 2.0
    suspend_max_s: float = 10.0
    suspend_jitter: float = 0.5
    probation_successes: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.health_alpha <= 1:
            raise ValueError(f"health_alpha must be in (0, 1]: {self.health_alpha}")
        check_backoff(
            "suspension", self.suspend_base_s, self.suspend_multiplier,
            self.suspend_max_s, self.suspend_jitter,
        )
        if self.probation_successes < 0:
            raise ValueError(
                f"probation_successes must be >= 0: {self.probation_successes}"
            )


@dataclass
class ReplicaHealth:
    """One replica's standing, as this client has observed it."""

    score: float = 1.0
    consecutive_failures: int = 0
    suspended_until: float = float("-inf")
    probation_left: int = 0
    successes: int = 0
    failures: int = 0


@dataclass
class FailoverStats:
    """Cumulative accounting across every call on one failover channel."""

    calls: int = 0
    successes: int = 0
    failures: int = 0        # calls where every candidate replica failed
    fast_failures: int = 0   # calls failed instantly: all replicas benched
    attempts: int = 0        # per-replica attempts (not channel retries)
    failovers: int = 0       # calls answered by a non-primary replica
    suspensions: int = 0
    #: The channel's per-replica standing, which ``by_replica`` reads.
    health: List[ReplicaHealth] = field(default_factory=list, repr=False)

    @property
    def by_replica(self) -> Dict[int, Dict[str, int]]:
        """Attempts, successes and failures of each replica tried so far:
        every attempt records exactly one success or failure in its health."""
        return {
            i: {
                "attempts": h.successes + h.failures,
                "successes": h.successes,
                "failures": h.failures,
            }
            for i, h in enumerate(self.health)
            if h.successes or h.failures
        }


class FailoverChannel:
    """Replica selection and failover over per-replica control channels.

    Parameters
    ----------
    sim:
        Simulator (for the clock; suspensions are sim-time windows).
    channels:
        One :class:`ControlChannel` (or anything exposing
        ``call_lookup()`` / ``call_report(report)``) per replica.
    rng:
        Sim-seeded RNG; required when ``config.suspend_jitter > 0``.
    config:
        :class:`FailoverConfig` (defaults apply when omitted).
    preference:
        Optional permutation of replica indices expressing nearness:
        ties in health break toward earlier entries, and the first entry
        is the initial sticky replica.  This is how the service-level
        ``NEAREST`` read policy is realized — the client prefers its
        close replica and only walks down the list on failure.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: Sequence[ControlChannel],
        *,
        rng=None,
        config: Optional[FailoverConfig] = None,
        preference: Optional[Sequence[int]] = None,
    ) -> None:
        if not channels:
            raise ValueError("FailoverChannel needs at least one channel")
        self.sim = sim
        self.channels = list(channels)
        self.config = config or FailoverConfig()
        if rng is None and self.config.suspend_jitter > 0:
            raise ValueError("suspension jitter requires an rng")
        self.rng = rng
        n = len(self.channels)
        if preference is None:
            preference = tuple(range(n))
        if sorted(preference) != list(range(n)):
            raise ValueError(
                f"preference must be a permutation of 0..{n - 1}: {preference}"
            )
        self._pref_rank = {index: rank for rank, index in enumerate(preference)}
        self._health: List[ReplicaHealth] = [ReplicaHealth() for _ in channels]
        self._current = preference[0]
        self.stats = FailoverStats(health=self._health)

    @property
    def n_replicas(self) -> int:
        return len(self.channels)

    @property
    def current_replica(self) -> int:
        """The sticky replica new calls try first (when not benched)."""
        return self._current

    def health(self, index: int) -> ReplicaHealth:
        """This client's observed standing of replica ``index``."""
        return self._health[index]

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _try_order(self) -> List[int]:
        """Non-benched replicas other than the sticky current one, best first.

        Replicas on probation sort after full-standing ones; health score
        then preference rank settle the rest.  Deterministic for a given
        state, so runs replay exactly.
        """
        now, health, current = self.sim._now, self._health, self._current
        order = [
            i for i in range(len(health))
            if i != current and health[i].suspended_until <= now
        ]
        order.sort(
            key=lambda i: (
                1 if health[i].probation_left > 0 else 0,
                -health[i].score,
                self._pref_rank[i],
            )
        )
        return order

    # ------------------------------------------------------------------
    # Outcome accounting
    # ------------------------------------------------------------------
    def _record_failure(self, index: int) -> None:
        cfg = self.config
        health = self._health[index]
        health.score = (1 - cfg.health_alpha) * health.score
        health.consecutive_failures += 1
        health.failures += 1
        health.suspended_until = self.sim._now + exponential_backoff_s(
            cfg.suspend_base_s, cfg.suspend_multiplier, cfg.suspend_max_s,
            health.consecutive_failures - 1, cfg.suspend_jitter, self.rng,
        )
        health.probation_left = cfg.probation_successes
        self.stats.suspensions += 1

    # ------------------------------------------------------------------
    # Call machinery
    # ------------------------------------------------------------------
    def _call(self, op: str, report: Optional[ConnectionReport] = None) -> RpcResult:
        stats = self.stats
        stats.calls += 1
        tele = _telemetry_session()
        current = self._current
        if self._health[current].suspended_until <= self.sim._now:
            # The sticky replica leads.  The rest are ranked only if it
            # fails: their order does not depend on its standing.
            order = [current]
        else:
            order = self._try_order()
            if not order:
                # Every replica is benched: fail fast, like an open breaker.
                stats.fast_failures += 1
                stats.failures += 1
                if tele.enabled:
                    tele.registry.counter(
                        "phi.replica_rpc_calls", replica="none", status="all_suspended"
                    ).inc()
                rec = tele.flightrec
                if rec.enabled:
                    rec.phi("all_suspended", self.sim.now, op)
                return RpcResult(RpcStatus.CIRCUIT_OPEN, 0, 0.0)
        primary = order[0]
        attempts = 0
        elapsed = 0.0
        tried = 0
        while tried < len(order):
            index = order[tried]
            tried += 1
            channel = self.channels[index]
            if op == "lookup":
                result = channel.call_lookup()
            else:
                result = channel.call_report(report)
            attempts += result.attempts
            elapsed += result.elapsed_s
            stats.attempts += 1
            if tele.enabled:
                tele.registry.counter(
                    "phi.replica_rpc_calls", replica=str(index), status=result.status.value
                ).inc()
            if result.status is RpcStatus.OK:
                health = self._health[index]
                alpha = self.config.health_alpha
                health.score = (1 - alpha) * health.score + alpha
                health.consecutive_failures = 0
                health.successes += 1
                if health.probation_left > 0:
                    health.probation_left -= 1
                stats.successes += 1
                if index != primary:
                    stats.failovers += 1
                    if tele.enabled:
                        tele.registry.counter("phi.failovers").inc()
                    rec = tele.flightrec
                    if rec.enabled:
                        rec.phi(
                            "failover", self.sim.now, op,
                            detail={"primary": primary, "served_by": index},
                        )
                if index != current and health.probation_left == 0:
                    self._current = index
                if tried == 1:  # the first replica's answer is the call's
                    return result
                return RpcResult(RpcStatus.OK, attempts, elapsed, result.value)
            self._record_failure(index)
            last = result
            if index == current:  # only ever first, and only if not benched
                order += self._try_order()
        stats.failures += 1
        return RpcResult(last.status, attempts, elapsed)

    # ------------------------------------------------------------------
    # ControlChannel-compatible surface
    # ------------------------------------------------------------------
    def call_lookup(self) -> RpcResult:
        """Connection-start lookup, failing over across replicas."""
        return self._call("lookup")

    def call_report(self, report: ConnectionReport) -> RpcResult:
        """Connection-end report, failing over across replicas."""
        return self._call("report", report)
