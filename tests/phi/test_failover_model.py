"""Differential model test: ``FailoverChannel`` against the rank-every-call loop.

``ReferenceFailover`` keeps the call loop as it stood before the sticky
replica was tried ahead of ranking: every call sorts every non-benched
replica, counts each attempt into ``by_replica`` as it goes and re-wraps
the answer.  Seeded programs of lookups and reports over fake backends
that answer, are marked down, refuse with ``ConnectionError`` (a
``REFUSED`` result from their channel), lose messages or are all
benched run against two identical stacks; after every operation the
result tuple, ``current_replica``, every ``ReplicaHealth``
field, every ``stats`` counter, ``by_replica`` and the jitter RNGs' states
must be ``==``.  Half the programs run with metrics on, and the two
stacks' registries must then hold the same counters.
"""

import functools
import random
from dataclasses import astuple, fields
from typing import Dict, List, Optional

import pytest

from repro import telemetry
from repro.phi.channel import (
    ChannelConfig,
    CircuitBreaker,
    ControlChannel,
    RpcResult,
    RpcStatus,
)
from repro.phi.context import CongestionContext
from repro.phi.failover import (
    FailoverChannel,
    FailoverConfig,
    FailoverStats,
)
from repro.phi.server import ConnectionReport
from repro.simnet import Simulator

#: The scalar counters of :class:`FailoverStats` (``by_replica`` aside).
STAT_FIELDS = [f.name for f in fields(FailoverStats) if f.name not in ("by_replica", "health")]


class ReferenceFailover(FailoverChannel):
    """The call loop before the sticky-first order, kept as reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reference_by_replica: Dict[int, Dict[str, int]] = {}

    def _replica(self, index):
        return self.reference_by_replica.setdefault(
            index, {"attempts": 0, "successes": 0, "failures": 0}
        )

    def _suspended(self, index: int) -> bool:
        return self.sim.now < self._health[index].suspended_until

    def _try_order(self) -> List[int]:
        order = [i for i in range(self.n_replicas) if not self._suspended(i)]
        order.sort(
            key=lambda i: (
                0 if i == self._current else 1,
                1 if self._health[i].probation_left > 0 else 0,
                -self._health[i].score,
                self._pref_rank[i],
            )
        )
        return order

    def _record_success(self, index: int) -> None:
        health = self._health[index]
        alpha = self.config.health_alpha
        health.score = (1 - alpha) * health.score + alpha
        health.consecutive_failures = 0
        health.successes += 1
        if health.probation_left > 0:
            health.probation_left -= 1

    def _call(self, op: str, report: Optional[ConnectionReport] = None) -> RpcResult:
        self.stats.calls += 1
        tele = telemetry.session()
        order = self._try_order()
        if not order:
            self.stats.fast_failures += 1
            self.stats.failures += 1
            if tele.enabled:
                tele.registry.counter(
                    "phi.replica_rpc_calls", replica="none", status="all_suspended"
                ).inc()
            return RpcResult(RpcStatus.CIRCUIT_OPEN, 0, 0.0)
        primary = order[0]
        attempts = 0
        elapsed = 0.0
        last: Optional[RpcResult] = None
        for index in order:
            channel = self.channels[index]
            if op == "lookup":
                result = channel.call_lookup()
            else:
                result = channel.call_report(report)
            attempts += result.attempts
            elapsed += result.elapsed_s
            replica_stats = self._replica(index)
            replica_stats["attempts"] += 1
            self.stats.attempts += 1
            if tele.enabled:
                tele.registry.counter(
                    "phi.replica_rpc_calls", replica=str(index), status=result.status.value
                ).inc()
            if result.ok:
                replica_stats["successes"] += 1
                self._record_success(index)
                self.stats.successes += 1
                if index != primary:
                    self.stats.failovers += 1
                    if tele.enabled:
                        tele.registry.counter("phi.failovers").inc()
                if index != self._current and self._health[index].probation_left == 0:
                    self._current = index
                return RpcResult(RpcStatus.OK, attempts, elapsed, result.value)
            replica_stats["failures"] += 1
            self._record_failure(index)
            last = result
        self.stats.failures += 1
        return RpcResult(last.status, attempts, elapsed)


class FakeBackend:
    """Answers, or refuses with the exception it was handed."""

    def __init__(self):
        self.refuse = None

    def lookup(self):
        if self.refuse is not None:
            raise self.refuse
        return CongestionContext.idle()

    def report(self, report):
        if self.refuse is not None:
            raise self.refuse


#: Calls, and the faults that make replicas fail them.  Outages nest, so
#: ``up`` is drawn twice as often as ``down``.
_OPS = ("lookup",) * 10 + ("report",) * 8 + ("down", "up", "up", "refuse", "serve", "serve")


def _stack(sim, cls, seed, n, config, preference, channel_config):
    backends = [FakeBackend() for _ in range(n)]
    channels = [
        ControlChannel(
            sim,
            backend,
            config=channel_config,
            rng=random.Random(seed * 31 + index),
            breaker=CircuitBreaker(lambda: sim.now, failure_threshold=3, reset_timeout_s=1.0),
        )
        for index, backend in enumerate(backends)
    ]
    rng = random.Random(seed)
    failover = cls(sim, channels, rng=rng, config=config, preference=preference)
    return backends, channels, failover, rng


def _report(flow_id, at):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=at,
        bytes_transferred=3000,
        duration_s=0.05,
        mean_rtt_s=0.024,
        min_rtt_s=0.020,
        loss_indicator=0.0,
    )


def _assert_same_state(product, reference, where):
    p, r = product[2], reference[2]
    assert p.current_replica == r.current_replica, where
    for index in range(p.n_replicas):
        assert astuple(p.health(index)) == astuple(r.health(index)), (where, index)
    for name in STAT_FIELDS:
        assert getattr(p.stats, name) == getattr(r.stats, name), (where, name)
    assert p.stats.by_replica == r.reference_by_replica, where
    assert product[3].getstate() == reference[3].getstate(), where
    for pc, rc in zip(product[1], reference[1]):
        assert pc.rng.getstate() == rc.rng.getstate(), where


@functools.lru_cache(maxsize=None)
def _run_program(seed, n_ops=400):
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3, 3, 4))
    config = FailoverConfig(
        suspend_base_s=rng.choice((0.0, 0.05, 0.5)),
        suspend_jitter=rng.choice((0.0, 0.5)),
        probation_successes=rng.choice((0, 1, 2)),
    )
    preference = list(range(n))
    rng.shuffle(preference)
    channel_config = ChannelConfig(
        loss_probability=rng.choice((0.0, 0.0, 0.2)),
        max_retries=rng.choice((0, 1, 3)),
        backoff_jitter=0.25,
    )
    sim = Simulator()
    stacks = [
        _stack(sim, cls, seed, n, config, preference, channel_config)
        for cls in (FailoverChannel, ReferenceFailover)
    ]
    sessions = [telemetry.TelemetrySession(telemetry.MetricsRegistry()) for _ in stacks]
    metrics_on = seed % 2 == 0
    outcomes = {"ok": 0, "failed": 0, "all_suspended": 0, "failover": 0}
    for step in range(n_ops):
        sim.run(until=sim.now + rng.choice((0.0, 0.001, 0.02, 0.3, 1.5)))
        op = rng.choice(_OPS)
        # Half the faults hit the replica the client is stuck to.
        replica = rng.choice((stacks[0][2].current_replica, rng.randrange(n)))
        where = (seed, step, op, replica, sim.now)
        if op in ("lookup", "report"):
            results = []
            before = stacks[0][2].stats.failovers, stacks[0][2].stats.fast_failures
            for stack, session in zip(stacks, sessions):
                failover = stack[2]
                if metrics_on:
                    with telemetry.use(session):
                        result = _call(failover, op, step, sim.now)
                else:
                    result = _call(failover, op, step, sim.now)
                results.append(
                    (result.status, result.attempts, result.elapsed_s, result.value)
                )
            assert results[0] == results[1], where
            stats = stacks[0][2].stats
            outcomes["ok" if results[0][0] is RpcStatus.OK else "failed"] += 1
            outcomes["failover"] += stats.failovers > before[0]
            outcomes["all_suspended"] += stats.fast_failures > before[1]
        else:
            for backends, channels, _, _ in stacks:
                if op == "down":
                    channels[replica].mark_down()
                elif op == "up":
                    channels[replica].mark_up()
                else:
                    backends[replica].refuse = (
                        ConnectionError("refused") if op == "refuse" else None
                    )
        _assert_same_state(stacks[0], stacks[1], where)
    if metrics_on:
        assert sessions[0].registry.snapshot() == sessions[1].registry.snapshot()
    return outcomes


def _call(failover, op, step, now):
    if op == "lookup":
        return failover.call_lookup()
    return failover.call_report(_report(step, now))


SEEDS = range(16)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_call_equals_the_ranked_loop(seed):
    _run_program(seed)


def test_programs_reach_every_path():
    """The generator does what the test above relies on: calls that fail
    over inside one call, that find every replica benched, and plenty of
    both plain outcomes.  Programs are deterministic; those above ran."""
    totals = {"ok": 0, "failed": 0, "all_suspended": 0, "failover": 0}
    for seed in SEEDS:
        for key, value in _run_program(seed).items():
            totals[key] += value
    assert all(value > 100 for value in totals.values()), totals
