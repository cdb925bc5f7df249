"""Tests for the resilient context client's degradation discipline."""

import pytest

from repro import telemetry
from repro.phi.channel import ControlChannel, RpcResult, RpcStatus
from repro.phi.context import CongestionContext, CongestionLevel
from repro.phi.fallback import MAX_PENDING_REPORTS, ContextDecision, ResilientContextClient
from repro.phi.guard import ContextGuard
from repro.phi.trust import MIN_SAMPLES, TrustTracker
from repro.phi.policy import REFERENCE_POLICY
from repro.phi.server import ConnectionReport, ContextServer
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport.cubic import CubicParams
from repro.transport.sink import TcpSink

from .conftest import IDLE


#: What a call to an unreachable server returns.
DOWN = RpcResult(RpcStatus.SERVER_DOWN)


class FlakySource:
    """A control channel whose availability is script-controlled."""

    def __init__(self, context=None):
        self.up = True
        self.context = context or CongestionContext(
            utilization=0.5, queue_delay_s=0.02, competing_senders=4.0
        )
        self.lookups = 0
        self.reports = []

    def call_lookup(self):
        if not self.up:
            return DOWN
        self.lookups += 1
        return RpcResult(RpcStatus.OK, self.context)

    def call_report(self, report):
        if not self.up:
            return DOWN
        self.reports.append(report)
        return RpcResult(RpcStatus.OK)


def make_report(flow_id=1):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=0.0,
        bytes_transferred=1000,
        duration_s=1.0,
        mean_rtt_s=0.16,
        min_rtt_s=0.15,
        loss_indicator=0.0,
    )


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestDecisions:
    def test_fresh_on_success(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.FRESH
        assert resolved.context is source.context
        assert client._decided[ContextDecision.FRESH.value] == 1

    def test_stale_within_ttl(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock, staleness_ttl_s=5.0)
        client.resolve()           # cache at t=0
        source.up = False
        clock.t = 3.0
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.STALE
        assert resolved.context is source.context
        assert resolved.age_s == pytest.approx(3.0)

    def test_fallback_past_ttl(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock, staleness_ttl_s=5.0)
        client.resolve()
        source.up = False
        clock.t = 6.0
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.FALLBACK
        assert resolved.context is None

    def test_fallback_with_cold_cache(self):
        clock = Clock()
        source = FlakySource()
        source.up = False
        client = ResilientContextClient(source, now=clock)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.FALLBACK

    def test_recovery_refreshes_cache(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock, staleness_ttl_s=5.0)
        source.up = False
        assert client.resolve().decision is ContextDecision.FALLBACK
        source.up = True
        assert client.resolve().decision is ContextDecision.FRESH
        source.up = False
        clock.t = 4.0
        assert client.resolve().decision is ContextDecision.STALE
        assert client.decision_counts() == {
            "fresh": 1, "stale": 1, "fallback": 1, "distrusted": 0,
        }

    def test_validation(self):
        source = FlakySource()
        with pytest.raises(ValueError):
            ResilientContextClient(source, now=Clock(), staleness_ttl_s=-1)
        with pytest.raises(ValueError):
            ResilientContextClient(source, now=Clock(), staleness_ttl_s=float("nan"))


class TestReportRecovery:
    def test_failed_reports_queue_and_flush(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock)
        source.up = False
        client.report(make_report(1))
        client.report(make_report(2))
        assert client.pending_reports == 2
        assert source.reports == []
        source.up = True
        client.report(make_report(3))
        assert client.pending_reports == 0
        assert [r.flow_id for r in source.reports] == [1, 2, 3]

    def test_successful_lookup_flushes_backlog(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock)
        source.up = False
        client.report(make_report(1))
        source.up = True
        client.resolve()
        assert client.pending_reports == 0
        assert [r.flow_id for r in source.reports] == [1]

    def test_bounded_queue_drops_oldest(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock)
        source.up = False
        flow_ids = range(MAX_PENDING_REPORTS + 2)
        for flow_id in flow_ids:
            client.report(make_report(flow_id))
        assert client.pending_reports == MAX_PENDING_REPORTS
        source.up = True
        client.resolve()
        assert [r.flow_id for r in source.reports] == list(flow_ids[2:])


class TestResilientFactory:
    def _env(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        return sim, top, spec

    def test_fallback_uses_default_params(self):
        sim, top, spec = self._env()
        source = FlakySource()
        source.up = False
        client = ResilientContextClient(source, now=lambda: sim.now)
        factory = client.sender_factory(REFERENCE_POLICY)
        sender = factory(sim, top.senders[0], spec, 50_000, lambda s: None)
        assert sender.params == CubicParams.default()
        assert client._decided[ContextDecision.FALLBACK.value] == 1

    def test_fresh_uses_policy_params(self):
        sim, top, spec = self._env()
        source = FlakySource()  # utilization 0.5 -> MODERATE
        client = ResilientContextClient(source, now=lambda: sim.now)
        factory = client.sender_factory(REFERENCE_POLICY)
        sender = factory(sim, top.senders[0], spec, 50_000, lambda s: None)
        expected = REFERENCE_POLICY.params_for(source.context)
        assert sender.params == expected

    def test_completed_connection_reports_through_client(self):
        sim, top, spec = self._env()
        server = ContextServer(sim, top.config.bottleneck_bandwidth_bps)
        channel = ControlChannel(sim, server)
        client = ResilientContextClient(channel, now=lambda: sim.now)
        factory = client.sender_factory(REFERENCE_POLICY)
        # Read at completion, which runs after the report: its bytes are in
        # the server's window, and it released the lookup's lease.
        done = []
        sender = factory(
            sim, top.senders[0], spec, 30_000,
            lambda s: done.append(server.estimated_utilization()),
        )
        sender.start()
        sim.run(until=30.0)
        assert len(done) == 1 and done[0] > 0
        assert server.current_context().competing_senders == 0


def mode_times(counters):
    """``phi.mode_time_s{mode}`` as ``{mode: seconds}``."""
    prefix = "phi.mode_time_s{mode="
    return {k[len(prefix):-1]: v for k, v in counters.items() if k.startswith(prefix)}


class TestModeTimeAccounting:
    def test_mode_times_charge_elapsed_to_prior_mode(self):
        source, clock = FlakySource(), Clock()
        with telemetry.use() as tele:
            client = ResilientContextClient(source, now=clock, staleness_ttl_s=10.0)
            client.resolve()                  # FRESH at t=0
            clock.t = 4.0
            source.up = False
            client.resolve()                  # STALE at t=4: 4 s of FRESH
            clock.t = 9.0
            # The open STALE interval is charged only when a decision ends it.
            assert mode_times(tele.registry.snapshot()["counters"]) == {"fresh": 4.0}
            client.resolve()                  # STALE at t=9: 5 s of STALE
            counters = tele.registry.snapshot()["counters"]
        assert mode_times(counters) == {"fresh": 4.0, "stale": 5.0}

    def test_no_mode_before_first_lookup(self):
        clock = Clock()
        with telemetry.use() as tele:
            client = ResilientContextClient(FlakySource(), now=clock)
            clock.t = 5.0
            client.resolve()  # the 5 s before it belong to no mode
            counters = tele.registry.snapshot()["counters"]
        assert mode_times(counters) == {}
        assert counters["phi.context_decisions{decision=fresh}"] == 1.0

    def test_telemetry_counters(self):
        source, clock = FlakySource(), Clock()
        with telemetry.use() as tele:
            client = ResilientContextClient(
                source, now=clock, staleness_ttl_s=10.0
            )
            client.resolve()                  # fresh
            clock.t = 3.0
            source.up = False
            client.resolve()                  # stale; 3 s charged to fresh
            clock.t = 5.0
            client.resolve()                  # stale; 2 s charged to stale
            counters = tele.registry.snapshot()["counters"]
        assert counters["phi.context_decisions{decision=fresh}"] == 1.0
        assert counters["phi.context_decisions{decision=stale}"] == 2.0
        assert counters["phi.mode_time_s{mode=fresh}"] == 3.0
        assert counters["phi.mode_time_s{mode=stale}"] == 2.0


class TestNarrowedExceptions:
    """Only failed results are masked; a backend bug propagates through
    the channel and the client both."""

    @staticmethod
    def _client_over(backend):
        sim = Simulator()
        channel = ControlChannel(sim, backend)
        return ResilientContextClient(channel, now=lambda: sim.now), channel

    def test_programming_bug_propagates_from_resolve(self):
        class BuggyBackend:
            def lookup(self):
                raise KeyError("not a transport problem")

        client, _ = self._client_over(BuggyBackend())
        with pytest.raises(KeyError):
            client.resolve()

    def test_programming_bug_propagates_from_report(self):
        class BuggyBackend:
            def lookup(self):
                return IDLE

            def report(self, report):
                raise TypeError("bad callback wiring")

        client, _ = self._client_over(BuggyBackend())
        with pytest.raises(TypeError):
            client.report(make_report(1))

    def test_failed_result_degrades(self):
        failed = [status for status in RpcStatus if status is not RpcStatus.OK]
        for status in failed:
            class Failing:
                def call_lookup(self):
                    return RpcResult(status)

                def call_report(self, report):
                    return RpcResult(status)

            client = ResilientContextClient(Failing(), now=Clock())
            assert client.resolve().decision is ContextDecision.FALLBACK, status
            client.report(make_report(1))
            assert client.pending_reports == 1, status


class TestGuardIntegration:
    def test_guard_rejection_degrades_like_rpc_failure(self):
        clock = Clock()
        source = FlakySource()
        guard = ContextGuard(15.0)
        client = ResilientContextClient(source, now=clock, guard=guard)
        # fair_share inconsistent with capacity/n: 15/4 = 3.75, claim 9.
        source.context = CongestionContext(
            utilization=0.5, queue_delay_s=0.02, competing_senders=4.0,
            fair_share_mbps=9.0,
        )
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.FALLBACK
        assert sum(guard.rejection_counts().values()) == 1
        assert source.lookups == 1  # the call itself succeeded

    def test_guard_rejection_serves_stale_cache(self):
        clock = Clock()
        source = FlakySource()
        guard = ContextGuard(15.0)
        client = ResilientContextClient(
            source, now=clock, guard=guard, staleness_ttl_s=10.0
        )
        good = source.context
        assert client.resolve().decision is ContextDecision.FRESH
        clock.t = 2.0
        from repro.phi.corruption import raw_context

        # Bypasses __post_init__ the way a wire deserializer would.
        source.context = raw_context(0.5, 0.02, -3.0, 2.0, None)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.STALE
        assert resolved.context is good

    def test_rejected_context_never_cached(self):
        clock = Clock()
        source = FlakySource()
        guard = ContextGuard(15.0)
        client = ResilientContextClient(source, now=clock, guard=guard)
        from repro.phi.corruption import raw_context

        source.context = raw_context(float("nan"), 0.0, 1.0, 0.0, None)
        assert client.resolve().decision is ContextDecision.FALLBACK
        source.up = False
        # Nothing in the cache: degradation skips STALE entirely.
        assert client.resolve().decision is ContextDecision.FALLBACK


class TestDistrust:
    def _distrusting_client(self, source, clock):
        trust = TrustTracker()
        client = ResilientContextClient(source, now=clock, trust=trust)
        return client, trust

    @staticmethod
    def _distrust(trust):
        for _ in range(MIN_SAMPLES):
            trust.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert trust.distrusted

    @staticmethod
    def _restore(trust, level):
        while trust.distrusted:
            trust.record(level, level)

    def test_distrusted_lookup_carries_shadow_not_context(self):
        clock = Clock()
        source = FlakySource()
        client, trust = self._distrusting_client(source, clock)
        self._distrust(trust)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.DISTRUSTED
        assert resolved.context is None
        assert resolved.shadow is source.context

    def test_shadow_scoring_restores_trust(self):
        clock = Clock()
        source = FlakySource()
        client, trust = self._distrusting_client(source, clock)
        self._distrust(trust)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.DISTRUSTED
        # The shadow predictions keep turning out accurate -> trust restored.
        with telemetry.use() as tele:
            self._restore(trust, resolved.shadow.level())
            counters = tele.registry.snapshot()["counters"]
        assert counters["phi.trust_transitions{to_state=trusted}"] == 1.0
        assert client.resolve().decision is ContextDecision.FRESH

    def test_mode_times_across_fresh_distrusted_fresh(self):
        clock = Clock()
        source = FlakySource()
        with telemetry.use() as tele:
            client, trust = self._distrusting_client(source, clock)
            assert client.resolve().decision is ContextDecision.FRESH
            clock.t = 3.0
            self._distrust(trust)
            assert client.resolve().decision is ContextDecision.DISTRUSTED
            clock.t = 8.0
            self._restore(trust, source.context.level())
            assert client.resolve().decision is ContextDecision.FRESH
            clock.t = 10.0
            assert client.resolve().decision is ContextDecision.FRESH
            counters = tele.registry.snapshot()["counters"]
        assert mode_times(counters) == {"fresh": 5.0, "distrusted": 5.0}
        assert client.decision_counts() == {
            "fresh": 3, "stale": 0, "fallback": 0, "distrusted": 1,
        }

    def test_observe_outcome_scores_fresh_and_shadow(self):
        from repro.transport.base import ConnectionStats

        clock = Clock()
        source = FlakySource()
        trust = TrustTracker()
        client = ResilientContextClient(source, now=clock, trust=trust)
        resolved = client.resolve()
        stats = ConnectionStats(flow_id=1)
        stats.start_time, stats.end_time = 0.0, 1.0
        stats.packets_sent = 10
        client.observe_outcome(resolved, stats)
        assert trust.samples == 1
        # FALLBACK resolutions carry no prediction: no-op.
        source.up = False
        clock.t = 100.0  # past the staleness TTL, so no STALE answer
        client.observe_outcome(client.resolve(), stats)
        assert trust.samples == 1

    def test_distrusted_lookup_still_flushes_reports(self):
        clock = Clock()
        source = FlakySource()
        client, trust = self._distrusting_client(source, clock)
        source.up = False
        client.report(make_report(1))
        assert client.pending_reports == 1
        source.up = True
        self._distrust(trust)
        assert client.resolve().decision is ContextDecision.DISTRUSTED
        assert client.pending_reports == 0
        assert [r.flow_id for r in source.reports] == [1]
