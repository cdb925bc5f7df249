"""Client-side failover across a replicated control plane.

A sender reaches each replica through its own
:class:`~repro.phi.channel.ControlChannel` (outages, per replica).  The
:class:`FailoverChannel` sits on top and decides *which* replica to ask;
every plane has one, and a single-server plane is its one-replica case,
so one health machine judges every replica at every replica count:

- **health scoring**: every observed RPC outcome folds into a per-replica
  EWMA score, so replica choice is driven by what the client actually
  experienced, not by any global view;
- **failover**: when a replica's result is not OK (server down), the
  call moves on to the next-best replica within the same simulated
  instant — RPC time is not simulated, exactly as in the underlying
  channel;
- **jittered suspension**: a failed replica is benched for
  :data:`SUSPEND_S` scaled by ``1 + U[0, jitter)`` drawn from the sim
  RNG, so clients whose replica died together do not all probe it at
  the same instant — and the run stays a pure function of its seed.
  The window does not grow with repeated failures: a plane's senders
  share one client and a call takes no simulated time, so a longer
  bench protects no server and only delays noticing that it healed;
  when every replica is benched the call fails fast
  (:attr:`RpcStatus.ALL_SUSPENDED`);
- **sticky-with-probation reselection**: the client sticks to its
  current replica while it works; a replica coming off suspension must
  answer :data:`PROBATION_SUCCESSES` calls before it can become the sticky
  choice again, so one lucky probe does not yank the whole client back
  to a flapping replica.

The channel exposes the same ``call_lookup``/``call_report`` surface as
:class:`ControlChannel`, returning :class:`RpcResult`, so a
:class:`~repro.phi.fallback.ResilientContextClient` wraps either one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..telemetry import session as _telemetry_session
from .channel import ControlChannel, RpcResult, RpcStatus
from .server import ConnectionReport

#: EWMA weight of the latest outcome in a replica's health score (1 =
#: healthy, 0 = hopeless): two failures in a row halve it.
HEALTH_ALPHA = 0.3
#: Every failed call benches its replica for this long (before jitter).
SUSPEND_S = 0.5
#: Successful calls a replica coming off suspension must serve before it
#: can be reselected as the sticky current replica: one lucky probe is
#: not enough.
PROBATION_SUCCESSES = 2


@dataclass(frozen=True)
class FailoverConfig:
    """The failover channel's one per-deployment knob.

    Attributes
    ----------
    suspend_jitter:
        Uniform multiplicative jitter on the suspension window:
        scaled by ``1 + U[0, suspend_jitter)``, drawn from the sim RNG
        (required when > 0) so recovery probes decorrelate across
        clients while staying reproducible.
    """

    suspend_jitter: float = 0.5

    def __post_init__(self) -> None:
        check("suspend_jitter", self.suspend_jitter, ge=0)


@dataclass
class ReplicaHealth:
    """One replica's standing, as this client has observed it."""

    score: float = 1.0
    suspended_until: float = float("-inf")
    probation_left: int = 0
    successes: int = 0
    failures: int = 0


@dataclass
class FailoverStats:
    """Cumulative accounting across every call on one failover channel."""

    fast_failures: int = 0   # calls failed instantly: all replicas benched
    failovers: int = 0       # calls answered by a non-primary replica
    #: The channel's per-replica standing, which ``by_replica`` reads.
    health: List[ReplicaHealth] = field(default_factory=list, repr=False)

    @property
    def by_replica(self) -> Dict[int, Dict[str, int]]:
        """Attempts, successes and failures of each replica tried so far:
        every replica call records exactly one success or failure in its health."""
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

    Replica 0 is the initial sticky replica, and ties in health break
    toward the lower index.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: Sequence[ControlChannel],
        *,
        rng=None,
        config: Optional[FailoverConfig] = None,
    ) -> None:
        if not channels:
            raise ValueError("FailoverChannel needs at least one channel")
        self.sim = sim
        self.channels = list(channels)
        self.config = config or FailoverConfig()
        if rng is None and self.config.suspend_jitter:
            raise ValueError("suspension jitter requires an rng")
        self.rng = rng
        self._health: List[ReplicaHealth] = [ReplicaHealth() for _ in channels]
        self._current = 0
        self.stats = FailoverStats(health=self._health)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _try_order(self) -> List[int]:
        """Non-benched replicas other than the sticky current one, best first.

        Replicas on probation sort after full-standing ones; health score
        then index settle the rest.  Deterministic for a given
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
                i,
            )
        )
        return order

    # ------------------------------------------------------------------
    # Outcome accounting
    # ------------------------------------------------------------------
    def _record_failure(self, index: int) -> None:
        health = self._health[index]
        health.score = (1 - HEALTH_ALPHA) * health.score
        health.failures += 1
        wait = SUSPEND_S
        if self.config.suspend_jitter > 0:
            wait *= 1.0 + float(self.rng.uniform(0.0, self.config.suspend_jitter))
        health.suspended_until = self.sim._now + wait
        health.probation_left = PROBATION_SUCCESSES

    # ------------------------------------------------------------------
    # Call machinery
    # ------------------------------------------------------------------
    def _call(self, op: str, report: Optional[ConnectionReport] = None) -> RpcResult:
        stats = self.stats
        tele = _telemetry_session()
        current = self._current
        if self._health[current].suspended_until <= self.sim._now:
            # The sticky replica leads.  The rest are ranked only if it
            # fails: their order does not depend on its standing.
            order = [current]
        else:
            order = self._try_order()
            if not order:
                # Every replica is benched: fail fast, without an attempt.
                stats.fast_failures += 1
                if tele.enabled:
                    tele.registry.counter(
                        "phi.replica_rpc_calls", replica="none", status="all_suspended"
                    ).inc()
                rec = tele.flightrec
                if rec.enabled:
                    rec.phi("all_suspended", self.sim.now, op)
                return RpcResult(RpcStatus.ALL_SUSPENDED)
        primary = order[0]
        tried = 0
        while tried < len(order):
            index = order[tried]
            tried += 1
            channel = self.channels[index]
            if op == "lookup":
                result = channel.call_lookup()
            else:
                result = channel.call_report(report)
            if tele.enabled:
                tele.registry.counter(
                    "phi.replica_rpc_calls", replica=str(index), status=result.status.value
                ).inc()
            if result.status is RpcStatus.OK:
                health = self._health[index]
                health.score = (1 - HEALTH_ALPHA) * health.score + HEALTH_ALPHA
                health.successes += 1
                if health.probation_left > 0:
                    health.probation_left -= 1
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
                return result
            self._record_failure(index)
            if index == current:  # only ever first, and only if not benched
                order += self._try_order()
        return result

    # ------------------------------------------------------------------
    # ControlChannel-compatible surface
    # ------------------------------------------------------------------
    def call_lookup(self) -> RpcResult:
        """Connection-start lookup, failing over across replicas."""
        return self._call("lookup")

    def call_report(self, report: ConnectionReport) -> RpcResult:
        """Connection-end report, failing over across replicas."""
        return self._call("report", report)
