"""Checked-mode edge cases: interrupted runs, aborted flows, and faults.

Every scenario here ends in a conservation audit, so the tests prove the
invariant layer tolerates the messy stopping conditions real sweeps hit
(watchdog trips, mid-flight aborts, flapping links, control-plane
outages) without false positives.  Marked ``simcheck`` so the slow ones
can be deselected with ``-m 'not simcheck'``.
"""

import pytest

from repro import simcheck
from repro.experiments.degraded import run_degraded_phi_cubic
from repro.experiments.dumbbell import ExperimentEnv, run_preset
from repro.experiments.scenarios import (
    TABLE3_REMY,
    ScenarioPreset,
    run_cubic_fixed,
)
from repro.transport import CubicParams, CubicSender
from repro.phi import REFERENCE_POLICY
from repro.simcheck import ViolationReport
from repro.simnet import DelaySpike, DumbbellConfig, Outage
from repro.simnet.engine import SimulationStalled, SimWatchdog, WatchdogConfig
from repro.workload.onoff import OnOffConfig, OnOffSource

pytestmark = pytest.mark.simcheck

BUSY_WORKLOAD = OnOffConfig(mean_on_bytes=100_000, mean_off_s=0.2)


def checked_env(n_senders=4, seed=1, report=None):
    env = ExperimentEnv.create(
        DumbbellConfig(n_senders=n_senders),
        seed=seed,
        checked=True,
        check_report=report,
    )
    sources = []
    for index in range(n_senders):
        source = OnOffSource(
            env.sim,
            env.topology.senders[index],
            env.topology.receivers[index],
            env.wrap_factory(CubicSender),
            env.flow_ids,
            env.rngs.stream(f"onoff-{index}"),
            BUSY_WORKLOAD,
            flow_tracker=env.flow_tracker,
        )
        source.start()
        sources.append(source)
    return env, sources


class TestInterruptedRuns:
    def test_audit_holds_at_event_budget_stop(self):
        env, _ = checked_env()
        env.sim.run(until=10.0, max_events=5_000)  # stops mid-flight
        assert env.sim.now < 10.0
        env.audit()  # conservation holds at an arbitrary event boundary

    def test_audit_holds_after_watchdog_trip(self):
        env, _ = checked_env()
        env.sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=5_000)))
        with pytest.raises(SimulationStalled):
            env.sim.run(until=10.0)
        env.audit()

    def test_audit_holds_after_aborted_flows(self):
        env, sources = checked_env()
        env.sim.run(until=1.5)
        aborted = 0
        for source in sources:
            source.stop()  # aborts whatever is still in flight
            aborted += sum(
                1 for stats in source.all_stats(include_active=True)
                if not stats.completed
            )
        env.audit()
        assert aborted >= 0  # stop() ran cleanly whether or not flows were live


class TestFaultsUnderConservation:
    def test_link_flap_accounted(self):
        report = ViolationReport()
        env, sources = checked_env(report=report)
        # Three cycles of 0.3 s down, 0.4 s up from 0.5 s.
        flap = [
            Outage(env.sim, 0.5 + 0.7 * k, 0.3, links=[env.topology.bottleneck])
            for k in range(3)
        ]
        env.sim.run(until=4.0)
        for source in sources:
            source.stop()
        env.audit(faults=flap)
        assert report.ok, [str(v) for v in report.violations]
        assert sum(o.packets_blackholed for o in flap) > 0  # the flap actually bit

    def test_delay_spike_leaves_wire_residual_only(self):
        report = ViolationReport()
        env, sources = checked_env(report=report)
        spike = DelaySpike(
            env.sim, env.topology.bottleneck,
            start_s=0.5, duration_s=2.0, extra_delay_s=0.8,
        )
        # Stop inside the spike window so parked packets are still parked.
        env.sim.run(until=1.0)
        env.audit(faults=[spike])
        assert report.ok, [str(v) for v in report.violations]
        assert spike.packets_delayed > 0

    def test_server_outage_run_stays_clean_in_checked_mode(self):
        # REPRO_SIMCHECK-style global enablement: every env the degraded
        # runner builds becomes checked, including the conservation audit
        # at the end of the run, with zero call-site changes.
        with simcheck.use():
            outcome = run_degraded_phi_cubic(
                REFERENCE_POLICY,
                TABLE3_REMY,
                unavailability=0.4,
                duration_s=4.0,
                seed=2,
                outage_period_s=1.0,
            )
        assert outcome.result.connections > 0
        assert outcome.decision_counts  # the outage path was exercised


class TestFlushedOutRegressions:
    #: The exact scenario in which the checked tier-1 gate first caught
    #: the stale-SACK bug: six long-running Cubic senders, seed 0.  A
    #: straggler ACK after an RTO re-admitted pre-rewind SACK blocks and
    #: tripped tcp.sack_overrun at t=3.007s.  Failing-before /
    #: passing-after for the snd_nxt clamp in TcpSender._process_ack.
    STALE_SACK_REPRO = ScenarioPreset(
        name="stale-sack-repro",
        config=DumbbellConfig(n_senders=6),
        workload=None,
        duration_s=20.0,
        description="six long-running senders, RTO + straggler ACKs",
    )

    def test_post_rto_straggler_acks_stay_violation_free(self):
        result = run_cubic_fixed(
            CubicParams.default(), self.STALE_SACK_REPRO, seed=0, checked=True
        )
        assert result.connections == 6
        assert result.mean_utilization > 0.8


class TestGlobalEnablement:
    def test_use_scopes_checked_mode(self):
        # Don't assume the ambient default: CI runs this very suite with
        # REPRO_SIMCHECK=1, so restore whatever state we started in.
        previous = simcheck.enabled()
        with simcheck.use():
            assert simcheck.enabled()
            result = run_preset(
                lambda env: CubicSender,
                ScenarioPreset(
                    name="busy-pair",
                    config=DumbbellConfig(n_senders=2),
                    workload=BUSY_WORKLOAD,
                    duration_s=1.0,
                    description="",
                ),
                seed=3,
            )
        assert simcheck.enabled() == previous
        with simcheck.use(False):
            assert not simcheck.enabled()
        assert simcheck.enabled() == previous
        assert result.connections >= 0
