"""Tests for the replicated context service (anti-entropy, quorum)."""

import pytest

from repro import telemetry
from repro.phi.replication import (
    QuorumUnavailable,
    ReadPolicy,
    ReplicatedContextService,
    ReplicationConfig,
)
from repro.phi.server import ConnectionReport, RobustAggregationConfig
from repro.simnet import Simulator

CAPACITY_BPS = 10e6


def make_report(flow_id=1, at=0.0, bytes_transferred=250_000, loss=0.0):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=at,
        bytes_transferred=bytes_transferred,
        duration_s=1.0,
        mean_rtt_s=0.05,
        min_rtt_s=0.04,
        loss_indicator=loss,
    )


def make_service(sim, n=3, period=1.0, policy=ReadPolicy.ANY, **kwargs):
    return ReplicatedContextService(
        sim,
        CAPACITY_BPS,
        config=ReplicationConfig(
            n_replicas=n, anti_entropy_period_s=period, read_policy=policy
        ),
        **kwargs,
    )


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ReplicationConfig(n_replicas=0)
        with pytest.raises(ValueError):
            ReplicationConfig(anti_entropy_period_s=0)
        with pytest.raises(ValueError):
            ReplicationConfig(quorum_staleness_s=0)

    def test_mesh_edge_validation(self):
        sim = Simulator()
        service = make_service(sim, n=3)
        with pytest.raises(ValueError):
            service.sever(0, 3)
        with pytest.raises(ValueError):
            service.sever(1, 1)


class TestSingleReplicaIdentity:
    def test_no_anti_entropy_events_for_one_replica(self):
        """N=1 must schedule nothing: the bit-identity oracle's backbone."""
        sim = Simulator()
        make_service(sim, n=1)
        sim.run(until=100.0)
        assert sim.events_processed == 0

    def test_multi_replica_ticks(self):
        sim = Simulator()
        service = make_service(sim, n=3, period=1.0)
        sim.run(until=10.5)
        assert sim.events_processed == 10
        assert len(service.divergence_history) == 10


class TestAntiEntropyMerge:
    def test_reports_replicate_to_all_replicas(self):
        sim = Simulator()
        service = make_service(sim, n=3)
        service.handle(0).report(make_report(flow_id=1, at=0.0))
        sim.run(until=1.5)
        assert service.anti_entropy_merges >= 1
        # Two other replicas each absorbed the report.
        assert service.reports_replicated == 2
        utils = [s.estimated_utilization() for s in service.servers]
        assert max(utils) == pytest.approx(min(utils))
        assert service.replica_divergence() == pytest.approx(0.0, abs=1e-12)

    def test_merge_is_assignment_invariant_on_window_state(self):
        """Same report set fed to different replicas converges to the
        same *windowed* state regardless of which replica heard what.
        (EWMA side-estimates keep per-replica fold history and are
        deliberately outside the convergence contract; divergence is
        defined on the windowed utilization estimator.)"""
        reports = [make_report(flow_id=i, at=0.0, loss=0.1 * i) for i in range(4)]

        def converged_state(assignment):
            sim = Simulator()
            service = make_service(sim, n=2)
            for replica, report in zip(assignment, reports):
                service.handle(replica).report(report)
            sim.run(until=1.5)
            utils = [s.estimated_utilization() for s in service.servers]
            assert utils[0] == utils[1]
            seen = [frozenset(h.seen) for h in service.handles]
            assert seen[0] == seen[1]
            return utils[0], seen[0]

        assert converged_state([0, 0, 0, 0]) == converged_state([1, 0, 1, 0])

    def test_severed_component_diverges_then_heals(self):
        sim = Simulator()
        service = make_service(sim, n=3)
        service.sever(0, 2)
        service.sever(1, 2)
        sim.schedule_at(0.5, service.handle(0).report, make_report(at=0.5))
        sim.run(until=2.5)
        assert service.replica_divergence() > 0
        service.heal(0, 2)
        service.heal(1, 2)
        sim.run(until=4.5)
        assert service.replica_divergence() == pytest.approx(0.0, abs=1e-9)

    def test_components_reflect_mesh(self):
        sim = Simulator()
        service = make_service(sim, n=4)
        assert service.components() == [[0, 1, 2, 3]]
        service.sever(0, 2)
        service.sever(0, 3)
        service.sever(1, 2)
        service.sever(1, 3)
        assert service.components() == [[0, 1], [2, 3]]
        assert service.component_of(3) == [2, 3]

    def test_robust_validation_respected_on_absorb(self):
        """A malformed report rejected at its home replica must not
        sneak into peers through anti-entropy."""
        sim = Simulator()
        service = make_service(
            sim, n=2, robust=RobustAggregationConfig()
        )
        bad = make_report(at=0.0, bytes_transferred=-5)
        service.handle(0).report(bad)
        assert service.servers[0].reports_rejected == 1
        assert bad not in service.handle(0).seen
        sim.run(until=1.5)
        assert service.reports_replicated == 0
        assert all(s.reports_absorbed == 0 for s in service.servers)


class TestLeaseReconciliation:
    def test_leases_counted_once_across_replicas(self):
        sim = Simulator()
        service = make_service(sim, n=3)
        service.handle(0).lookup()
        service.handle(1).lookup()
        sim.run(until=1.5)
        # After a merge every replica knows both outstanding leases.
        for server in service.servers:
            assert server.active_connections == 2

    def test_release_propagates(self):
        sim = Simulator()
        service = make_service(sim, n=3)
        service.handle(0).lookup()
        sim.run(until=1.5)
        assert all(s.active_connections == 1 for s in service.servers)
        service.handle(1).report(make_report(at=sim.now))
        sim.run(until=2.5)
        assert all(s.active_connections == 0 for s in service.servers)

    def test_lease_ttl_expiry_survives_merge(self):
        sim = Simulator()
        service = make_service(sim, n=2, lease_ttl_s=2.0)
        service.handle(0).lookup()
        sim.run(until=1.5)
        assert all(s.active_connections == 1 for s in service.servers)
        sim.run(until=4.5)
        assert all(s.active_connections == 0 for s in service.servers)
        # The handle logs expired too: nothing left to resurrect.
        assert service.handle(0).outstanding_leases() == {}

    def test_outstanding_leases_excludes_expired_on_an_idle_handle(self):
        """No merge and no later call on the handle: the lease expired
        only by the clock, and the handle must say so, as its server does."""
        sim = Simulator()
        service = make_service(sim, n=1, lease_ttl_s=2.0)
        service.handle(0).lookup()
        sim.run(until=3.0)
        assert service.servers[0].active_connections == 0
        assert service.handle(0).outstanding_leases() == {}


class TestQuorumPolicy:
    def test_minority_replica_refuses(self):
        sim = Simulator()
        service = make_service(sim, n=3, policy=ReadPolicy.QUORUM)
        sim.run(until=1.5)  # everyone has merged recently
        service.sever(0, 2)
        service.sever(1, 2)
        with pytest.raises(QuorumUnavailable):
            service.handle(2).lookup()
        # Majority side still answers.
        assert service.handle(0).lookup() is not None
        assert service.quorum_rejections == 1

    def test_stale_majority_replica_refuses(self):
        """Seeing a majority is not enough: the replica must have merged
        recently enough to speak for it."""
        sim = Simulator()
        service = make_service(sim, n=3, policy=ReadPolicy.QUORUM)
        sim.run(until=1.5)
        # Freeze merges by severing everything, then outwait staleness.
        for i, j in ((0, 1), (0, 2), (1, 2)):
            service.sever(i, j)
        sim.run(until=20.0)
        for index in range(3):
            with pytest.raises(QuorumUnavailable):
                service.handle(index).lookup()

    def test_any_policy_always_answers(self):
        sim = Simulator()
        service = make_service(sim, n=3, policy=ReadPolicy.ANY)
        service.sever(0, 1)
        service.sever(0, 2)
        assert service.handle(0).lookup() is not None


class TestTelemetry:
    def test_counters_and_gauge(self):
        with telemetry.use() as tele:
            sim = Simulator()
            service = make_service(sim, n=2)
            service.handle(0).report(make_report(at=0.0))
            sim.run(until=1.5)
            snapshot = tele.registry.snapshot()
        assert snapshot["counters"].get("phi.anti_entropy_merges") >= 1
        assert "phi.replica_divergence" in snapshot["gauges"]
