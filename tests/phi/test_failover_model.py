"""Differential model test: ``FailoverChannel`` against the rank-every-call loop.

``ReferenceFailover`` keeps the call loop as it stood before the sticky
replica was tried ahead of ranking: every call sorts every non-benched
replica and counts each replica call into ``by_replica`` as it goes.
It benches a failed replica by its own copy of the suspension rule: a
constant ``SUSPEND_S`` scaled by ``1 + U[0, jitter)``, however many
failures came before.
Seeded programs of lookups and reports over fake backends that answer,
are marked down or are all benched run against two identical stacks; after every operation the result, the sticky replica, every
``ReplicaHealth`` field, every ``stats`` counter, ``by_replica`` and the
suspension jitter RNG's state must be ``==``.  Half the programs run
with metrics on, and the two stacks' registries must then hold the same
counters.
"""

import functools
import random
from dataclasses import astuple, fields
from typing import Dict, List, Optional

import pytest

from repro import telemetry
from repro.phi.channel import ControlChannel, RpcResult, RpcStatus
from repro.phi.failover import (
    HEALTH_ALPHA,
    PROBATION_SUCCESSES,
    SUSPEND_S,
    FailoverChannel,
    FailoverConfig,
    FailoverStats,
)
from repro.phi.server import ConnectionReport
from repro.simnet import Simulator

from .conftest import IDLE

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
        order = [i for i in range(len(self.channels)) if not self._suspended(i)]
        order.sort(
            key=lambda i: (
                0 if i == self._current else 1,
                1 if self._health[i].probation_left > 0 else 0,
                -self._health[i].score,
                i,
            )
        )
        return order

    def _record_success(self, index: int) -> None:
        health = self._health[index]
        health.score = (1 - HEALTH_ALPHA) * health.score + HEALTH_ALPHA
        health.successes += 1
        if health.probation_left > 0:
            health.probation_left -= 1

    def _record_failure(self, index: int) -> None:
        health = self._health[index]
        health.score = (1 - HEALTH_ALPHA) * health.score
        health.failures += 1
        jitter = self.config.suspend_jitter
        scale = 1.0 + float(self.rng.uniform(0.0, jitter)) if jitter > 0 else 1.0
        health.suspended_until = self.sim.now + SUSPEND_S * scale
        health.probation_left = PROBATION_SUCCESSES

    def _call(self, op: str, report: Optional[ConnectionReport] = None) -> RpcResult:
        tele = telemetry.session()
        order = self._try_order()
        if not order:
            self.stats.fast_failures += 1
            if tele.enabled:
                tele.registry.counter(
                    "phi.replica_rpc_calls", replica="none", status="all_suspended"
                ).inc()
            return RpcResult(RpcStatus.ALL_SUSPENDED)
        primary = order[0]
        last: Optional[RpcResult] = None
        for index in order:
            channel = self.channels[index]
            if op == "lookup":
                result = channel.call_lookup()
            else:
                result = channel.call_report(report)
            replica_stats = self._replica(index)
            replica_stats["attempts"] += 1
            if tele.enabled:
                tele.registry.counter(
                    "phi.replica_rpc_calls", replica=str(index), status=result.status.value
                ).inc()
            if result.status is RpcStatus.OK:
                replica_stats["successes"] += 1
                self._record_success(index)
                if index != primary:
                    self.stats.failovers += 1
                    if tele.enabled:
                        tele.registry.counter("phi.failovers").inc()
                if index != self._current and self._health[index].probation_left == 0:
                    self._current = index
                return RpcResult(RpcStatus.OK, result.value)
            replica_stats["failures"] += 1
            self._record_failure(index)
            last = result
        return RpcResult(last.status)


class FakeBackend:
    """Answers every call; its channel's down-marks fail them."""

    def lookup(self):
        return IDLE

    def report(self, report):
        pass


#: Calls, and the faults that make replicas fail them.  Outages nest, so
#: ``up`` is drawn twice as often as ``down``; heals go to broken replicas.
_OPS = ("lookup",) * 10 + ("report",) * 8 + ("down", "up", "up")


def _stack(sim, cls, seed, n, config):
    backends = [FakeBackend() for _ in range(n)]
    channels = [ControlChannel(sim, backend) for backend in backends]
    rng = random.Random(seed)
    failover = cls(sim, channels, rng=rng, config=config)
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
    assert p._current == r._current, where
    for index in range(len(p.channels)):
        assert astuple(p._health[index]) == astuple(r._health[index]), (where, index)
    for name in STAT_FIELDS:
        assert getattr(p.stats, name) == getattr(r.stats, name), (where, name)
    assert p.stats.by_replica == r.reference_by_replica, where
    assert product[3].getstate() == reference[3].getstate(), where


@functools.lru_cache(maxsize=None)
def _run_program(seed, n_ops=400):
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3, 3, 4))
    config = FailoverConfig(suspend_jitter=rng.choice((0.0, 0.5)))
    sim = Simulator()
    stacks = [
        _stack(sim, cls, seed, n, config)
        for cls in (FailoverChannel, ReferenceFailover)
    ]
    sessions = [telemetry.TelemetrySession(telemetry.MetricsRegistry()) for _ in stacks]
    metrics_on = seed % 2 == 0
    outcomes = {"ok": 0, "failed": 0, "all_suspended": 0, "failover": 0}
    for step in range(n_ops):
        sim.run(until=sim.now + rng.choice((0.0, 0.001, 0.02, 0.3, 1.5)))
        op = rng.choice(_OPS)
        # Half the faults hit the replica the client is stuck to.
        replica = rng.choice((stacks[0][2]._current, rng.randrange(n)))
        if op == "up":
            # A heal goes to a replica with something to heal, if any:
            # suspensions only lapse into calls that can fail over.
            channels = stacks[0][1]
            broken = [i for i in range(n) if channels[i]._down_marks]
            if broken:
                replica = rng.choice(broken)
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
                results.append(result)
            assert results[0] == results[1], where
            stats = stacks[0][2].stats
            outcomes["ok" if results[0][0] is RpcStatus.OK else "failed"] += 1
            outcomes["failover"] += stats.failovers > before[0]
            outcomes["all_suspended"] += stats.fast_failures > before[1]
        else:
            for _, channels, _, _ in stacks:
                if op == "down":
                    channels[replica].mark_down()
                else:
                    channels[replica].mark_up()
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
