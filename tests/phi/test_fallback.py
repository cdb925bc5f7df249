"""Tests for the resilient context client's degradation discipline."""

import pytest

from repro.phi.channel import ChannelConfig, ControlChannel, RpcResult, RpcStatus
from repro.phi.context import CongestionContext, CongestionLevel
from repro.phi.fallback import ContextDecision, ResilientContextClient
from repro.phi.guard import ContextGuard, GuardConfig
from repro.phi.trust import TrustConfig, TrustTracker
from repro.phi.policy import REFERENCE_POLICY
from repro.phi.server import ConnectionReport, ContextServer
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport.cubic import CubicParams
from repro.transport.sink import TcpSink


#: What a call to an unreachable server returns.
DOWN = RpcResult(RpcStatus.SERVER_DOWN, 1, 0.25)


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
        return RpcResult(RpcStatus.OK, 1, 0.005, self.context)

    def call_report(self, report):
        if not self.up:
            return DOWN
        self.reports.append(report)
        return RpcResult(RpcStatus.OK, 1, 0.005)


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
        assert resolved.coordinated
        assert client.decisions[ContextDecision.FRESH] == 1

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
        assert resolved.coordinated

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
        assert not resolved.coordinated

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
            ResilientContextClient(source, now=Clock(), max_pending_reports=0)


class TestReportRecovery:
    def test_failed_reports_queue_and_flush(self):
        clock = Clock()
        source = FlakySource()
        client = ResilientContextClient(source, now=clock)
        source.up = False
        client.report(make_report(1))
        client.report(make_report(2))
        assert client.pending_reports == 2
        assert client.reports_queued == 2
        source.up = True
        client.report(make_report(3))
        assert client.pending_reports == 0
        assert [r.flow_id for r in source.reports] == [1, 2, 3]
        assert client.reports_flushed == 2
        assert client.reports_sent == 3

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
        client = ResilientContextClient(source, now=clock, max_pending_reports=2)
        source.up = False
        for flow_id in (1, 2, 3):
            client.report(make_report(flow_id))
        assert client.pending_reports == 2
        assert client.reports_dropped == 1
        source.up = True
        client.resolve()
        assert [r.flow_id for r in source.reports] == [2, 3]


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
        assert client.decisions[ContextDecision.FALLBACK] == 1

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
        channel = ControlChannel(sim, server, config=ChannelConfig(max_retries=0))
        client = ResilientContextClient(channel, now=lambda: sim.now)
        factory = client.sender_factory(REFERENCE_POLICY)
        done = []
        sender = factory(sim, top.senders[0], spec, 30_000, done.append)
        sender.start()
        sim.run(until=30.0)
        assert done
        assert server.reports_received == 1
        assert server.active_connections == 0


class TestModeTimeAccounting:
    def test_mode_times_charge_elapsed_to_prior_mode(self):
        source, clock = FlakySource(), Clock()
        client = ResilientContextClient(source, now=clock, staleness_ttl_s=10.0)
        client.resolve()                      # FRESH at t=0
        clock.t = 4.0
        source.up = False
        client.resolve()                      # STALE at t=4: 4 s of FRESH
        clock.t = 9.0
        assert client.mode_times() == {
            "fresh": 4.0, "stale": 5.0, "fallback": 0.0, "distrusted": 0.0,
        }
        # The closed-out ledger excludes the still-open STALE interval.
        assert client.mode_time_s["stale"] == 0.0

    def test_no_mode_before_first_lookup(self):
        client = ResilientContextClient(FlakySource(), now=Clock())
        assert client.mode_times() == {
            "fresh": 0.0, "stale": 0.0, "fallback": 0.0, "distrusted": 0.0,
        }

    def test_telemetry_counters(self):
        from repro import telemetry

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
        channel = ControlChannel(sim, backend, config=ChannelConfig(max_retries=0))
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
                return CongestionContext.idle()

            def report(self, report):
                raise TypeError("bad callback wiring")

        client, _ = self._client_over(BuggyBackend())
        with pytest.raises(TypeError):
            client.report(make_report(1))

    def test_failed_result_degrades(self):
        failed = [status for status in RpcStatus if status is not RpcStatus.OK]
        assert RpcStatus.REFUSED in failed
        for status in failed:
            class Failing:
                def call_lookup(self):
                    return RpcResult(status, 1, 0.0)

                def call_report(self, report):
                    return RpcResult(status, 1, 0.0)

            client = ResilientContextClient(Failing(), now=Clock())
            assert client.resolve().decision is ContextDecision.FALLBACK, status
            client.report(make_report(1))
            assert (client.pending_reports, client.reports_sent) == (1, 0), status

    def test_backend_refusal_degrades(self):
        class RefusingBackend:
            def lookup(self):
                raise ConnectionError("no quorum")

            def report(self, report):
                raise ConnectionError("no quorum")

        client, channel = self._client_over(RefusingBackend())
        assert client.resolve().decision is ContextDecision.FALLBACK
        client.report(make_report(1))
        assert client.pending_reports == 1
        assert channel.stats.by_status == {"backend_error": 2}


class TestGuardIntegration:
    def test_guard_rejection_degrades_like_rpc_failure(self):
        clock = Clock()
        source = FlakySource()
        guard = ContextGuard(GuardConfig(capacity_mbps=15.0))
        client = ResilientContextClient(source, now=clock, guard=guard)
        # fair_share inconsistent with capacity/n: 15/4 = 3.75, claim 9.
        source.context = CongestionContext(
            utilization=0.5, queue_delay_s=0.02, competing_senders=4.0,
            fair_share_mbps=9.0,
        )
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.FALLBACK
        assert guard.rejected_count == 1
        assert source.lookups == 1  # the call itself succeeded

    def test_guard_rejection_serves_stale_cache(self):
        clock = Clock()
        source = FlakySource()
        guard = ContextGuard()
        client = ResilientContextClient(
            source, now=clock, guard=guard, staleness_ttl_s=10.0
        )
        good = source.context
        assert client.resolve().decision is ContextDecision.FRESH
        clock.t = 2.0
        from repro.phi.corruption import raw_context

        # Bypasses __post_init__ the way a wire deserializer would.
        source.context = raw_context(0.5, 0.02, -3.0, timestamp=2.0)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.STALE
        assert resolved.context is good

    def test_rejected_context_never_cached(self):
        clock = Clock()
        source = FlakySource()
        guard = ContextGuard()
        client = ResilientContextClient(source, now=clock, guard=guard)
        from repro.phi.corruption import raw_context

        source.context = raw_context(float("nan"), 0.0, 1.0)
        assert client.resolve().decision is ContextDecision.FALLBACK
        source.up = False
        # Nothing in the cache: degradation skips STALE entirely.
        assert client.resolve().decision is ContextDecision.FALLBACK


class TestDistrust:
    def _distrusting_client(self, source, clock):
        trust = TrustTracker(TrustConfig(min_samples=1, ewma_alpha=1.0))
        client = ResilientContextClient(source, now=clock, trust=trust)
        return client, trust

    def test_distrusted_lookup_carries_shadow_not_context(self):
        clock = Clock()
        source = FlakySource()
        client, trust = self._distrusting_client(source, clock)
        trust.record(CongestionLevel.LOW, CongestionLevel.SEVERE)  # score -> 0
        assert trust.distrusted
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.DISTRUSTED
        assert resolved.context is None
        assert resolved.shadow is source.context
        assert not resolved.coordinated

    def test_shadow_scoring_restores_trust(self):
        clock = Clock()
        source = FlakySource()
        client, trust = self._distrusting_client(source, clock)
        trust.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        resolved = client.resolve()
        assert resolved.decision is ContextDecision.DISTRUSTED
        # The shadow prediction turns out accurate -> trust restored.
        predicted = resolved.shadow.level()
        trust.record(predicted, predicted)
        assert not trust.distrusted
        assert client.resolve().decision is ContextDecision.FRESH

    def test_mode_times_across_fresh_distrusted_fresh(self):
        clock = Clock()
        source = FlakySource()
        client, trust = self._distrusting_client(source, clock)
        assert client.resolve().decision is ContextDecision.FRESH
        clock.t = 3.0
        trust.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert client.resolve().decision is ContextDecision.DISTRUSTED
        clock.t = 8.0
        level = source.context.level()
        trust.record(level, level)
        assert client.resolve().decision is ContextDecision.FRESH
        clock.t = 10.0
        assert client.mode_times() == {
            "fresh": 5.0, "stale": 0.0, "fallback": 0.0, "distrusted": 5.0,
        }
        assert client.decision_counts() == {
            "fresh": 2, "stale": 0, "fallback": 0, "distrusted": 1,
        }

    def test_observe_outcome_scores_fresh_and_shadow(self):
        from repro.transport.base import ConnectionStats

        clock = Clock()
        source = FlakySource()
        trust = TrustTracker(TrustConfig(min_samples=100))
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
        trust.record(CongestionLevel.LOW, CongestionLevel.SEVERE)
        assert client.resolve().decision is ContextDecision.DISTRUSTED
        assert client.pending_reports == 0
        assert [r.flow_id for r in source.reports] == [1]
