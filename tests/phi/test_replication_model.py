"""Lease-log model test and control-plane invariants for ``ReplicaHandle``.

``LeaseLogModel`` is a replica's lease bookkeeping as it stood before the
oldest outstanding lease came off a heap: every RPC scans the whole log
for TTL expiry and ``report()`` takes ``min`` over a dict comprehension of
everything outstanding.  Random lookup / report / sever / heal / tick
programs run against a 3-replica service; after every operation each
handle's ``outstanding_leases()`` and ``released`` must equal the model's,
and the invariants of the control plane must hold:

- ``len(handle.outstanding_leases()) == handle.server.active_connections``
  for every handle, whether or not it was called since the clock moved;
- ``active_connections`` is never negative;
- no lease is both outstanding and released;
- ``replica_divergence() == 0.0`` right after a merge spanning all replicas.
"""

import random

import pytest

from repro.phi.replication import ReplicatedContextService, ReplicationConfig
from repro.phi.server import ConnectionReport
from repro.simnet import Simulator

CAPACITY_BPS = 10e6
N_REPLICAS = 3


class LeaseLogModel:
    """The rescanning lease bookkeeping of one replica, kept as reference."""

    def __init__(self, index, ttl):
        self.index = index
        self.ttl = ttl
        self.seq = 0
        self.lease_log = {}
        self.released = {}

    def expire(self, now):
        horizon = now - self.ttl
        expired = [lid for lid, ts in self.lease_log.items() if ts <= horizon]
        for lid in expired:
            del self.lease_log[lid]
            self.released.pop(lid, None)

    def outstanding(self):
        return {
            lid: ts for lid, ts in self.lease_log.items() if lid not in self.released
        }

    def lookup(self, now):
        self.expire(now)
        self.lease_log[(self.index, self.seq)] = now
        self.seq += 1

    def report(self, now):
        self.expire(now)
        outstanding = self.outstanding()
        if outstanding:
            oldest = min(outstanding, key=lambda lid: (outstanding[lid], lid))
            self.released[oldest] = outstanding[oldest]

    @staticmethod
    def merge(models, now):
        for model in models:
            model.expire(now)
        union_log, union_released = {}, {}
        for model in models:
            union_log.update(model.lease_log)
            union_released.update(model.released)
        for model in models:
            model.lease_log = dict(union_log)
            model.released = dict(union_released)


def _report(flow_id, at, rng):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=at,
        bytes_transferred=rng.randrange(1, 200_000),
        duration_s=rng.uniform(0.01, 0.4),
        mean_rtt_s=0.05,
        min_rtt_s=0.04,
        loss_indicator=0.0,
    )


def _assert_fresh(handle, model, where):
    """Invariants of a handle whose log was just expired at this clock."""
    outstanding = handle.outstanding_leases()
    assert outstanding == model.outstanding(), where
    assert handle.released == model.released, where
    assert handle.lease_log == model.lease_log, where
    assert len(outstanding) == handle.server.active_connections, where
    assert not set(outstanding) & set(handle.released), where


@pytest.mark.parametrize("ttl", [0.3, 60.0])
@pytest.mark.parametrize("seed", range(6))
def test_lease_bookkeeping_equals_the_rescan(seed, ttl):
    rng = random.Random(seed)
    sim = Simulator()
    service = ReplicatedContextService(
        sim,
        CAPACITY_BPS,
        config=ReplicationConfig(n_replicas=N_REPLICAS, anti_entropy_period_s=0.25),
        window_s=2.0,
        lease_ttl_s=ttl,
    )
    models = [LeaseLogModel(index, ttl) for index in range(N_REPLICAS)]
    merges = {"partial": 0, "full": 0}

    product_merge = service._merge

    def merge_both(component):
        where = (seed, ttl, "merge", tuple(component), sim.now)
        LeaseLogModel.merge([models[i] for i in component], sim.now)
        product_merge(component)
        for i in component:
            _assert_fresh(service.handle(i), models[i], where)
        if len(component) == N_REPLICAS:
            merges["full"] += 1
            assert service.replica_divergence() == 0.0, where
        else:
            merges["partial"] += 1

    service._merge = merge_both

    edges = [(0, 1), (0, 2), (1, 2)]
    for step in range(900):
        # A strictly positive advance before every operation: reported_at
        # values are unique, so every replica's window ends up in one order.
        gap = rng.choice((1e-4, 0.003, 0.02, 0.11)) * rng.uniform(0.5, 1.5)
        sim.run(until=sim.now + gap)
        op = rng.choice(("lookup",) * 6 + ("report",) * 5 + ("sever", "heal", "heal"))
        replica = rng.randrange(N_REPLICAS)
        where = (seed, ttl, step, op, replica, sim.now)
        if op == "lookup":
            service.handle(replica).lookup()
            models[replica].lookup(sim.now)
            _assert_fresh(service.handle(replica), models[replica], where)
        elif op == "report":
            service.handle(replica).report(_report(step, sim.now, rng))
            models[replica].report(sim.now)
            _assert_fresh(service.handle(replica), models[replica], where)
        else:
            getattr(service, op)(*rng.choice(edges))
        for index, handle in enumerate(service.handles):
            # Called or not since the clock moved, every handle answers
            # for the current clock, as its server does.
            models[index].expire(sim.now)
            _assert_fresh(handle, models[index], where)
            assert handle.server.active_connections >= 0, where

    assert merges["full"] > 20 and merges["partial"] > 5, merges
    if ttl < 1.0:
        assert sum(server.leases_expired for server in service.servers) > 0
