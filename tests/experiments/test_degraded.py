"""Tests for the degraded-control-plane experiment runner."""

import pytest

from repro import flightrec
from repro.experiments import (
    TABLE3_REMY,
    run_cubic_fixed,
    run_degraded_phi_cubic,
    run_fault_sweep,
    schedule_unavailability,
)
from repro.experiments.degraded import DEGRADED
from repro.experiments.scenarios import ScenarioPreset
from repro.flightrec.postmortem import fault_windows
from repro.phi import REFERENCE_POLICY, ChannelConfig, ControlChannel
from repro.phi.server import ContextServer
from repro.simnet import DumbbellConfig, Simulator
from repro.transport import CubicParams
from repro.workload import OnOffConfig

PRESET = ScenarioPreset(
    name="degraded-mini",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=0.5),
    duration_s=10.0,
    description="small degraded-control-plane smoke scenario",
)


class TestScheduleUnavailability:
    def _channel(self):
        sim = Simulator()
        return sim, ControlChannel(sim, ContextServer(sim, 15e6))

    def test_zero_fraction_schedules_nothing(self):
        sim, channel = self._channel()
        schedule_unavailability(channel, fraction=0.0, duration_s=10.0)
        assert sim.pending_events == 0
        assert channel.server_up

    def test_full_fraction_covers_whole_run(self):
        sim, channel = self._channel()
        schedule_unavailability(channel, fraction=1.0, duration_s=10.0)
        assert not channel.server_up
        sim.run(until=9.9)
        assert not channel.server_up
        sim.run(until=10.5)
        assert channel.server_up

    def test_partial_fraction_alternates(self):
        sim, channel = self._channel()
        schedule_unavailability(
            channel, fraction=0.5, duration_s=10.0, period_s=2.0
        )
        seen = {}
        for t in (0.5, 1.5, 2.5, 3.5):
            sim.schedule_at(t, lambda t=t: seen.update({t: channel.server_up}))
        sim.run()
        assert seen == {0.5: False, 1.5: True, 2.5: False, 3.5: True}

    def test_validation(self):
        _sim, channel = self._channel()
        with pytest.raises(ValueError):
            schedule_unavailability(channel, fraction=1.5, duration_s=10.0)
        with pytest.raises(ValueError):
            schedule_unavailability(
                channel, fraction=0.5, duration_s=10.0, period_s=0.0
            )

    @pytest.mark.parametrize("period_s", [float("nan"), -1.0, 0.0])
    def test_period_that_schedules_nothing_is_rejected(self, period_s):
        # A NaN period made every window NaN, so no outage was ever
        # scheduled and the "degraded" run saw a healthy plane.
        _sim, channel = self._channel()
        with pytest.raises(ValueError, match="period_s"):
            schedule_unavailability(
                channel, fraction=0.5, duration_s=10.0, period_s=period_s
            )

    def test_infinite_period_is_one_lump(self):
        sim, channel = self._channel()
        schedule_unavailability(
            channel, fraction=0.5, duration_s=10.0, period_s=float("inf")
        )
        seen = {}
        for t in (4.9, 5.1):
            sim.schedule_at(t, lambda t=t: seen.update({t: channel.server_up}))
        sim.run()
        assert seen == {4.9: False, 5.1: True}


class TestDegradedRuns:
    def test_fully_partitioned_equals_uncoordinated_baseline(self):
        degraded = run_degraded_phi_cubic(
            REFERENCE_POLICY, PRESET, unavailability=1.0, seed=3
        )
        baseline = run_cubic_fixed(CubicParams.default(), PRESET, seed=3)
        # Every connection fell back to stock Cubic, so the run is
        # bit-identical to the uncoordinated baseline.
        assert degraded.decision_counts["fresh"] == 0
        assert degraded.decision_counts["stale"] == 0
        assert degraded.decision_counts["fallback"] > 0
        assert degraded.metrics.throughput_mbps == pytest.approx(
            baseline.metrics.throughput_mbps
        )
        assert degraded.metrics.power_l == pytest.approx(baseline.metrics.power_l)
        assert degraded.channel_stats.successes == 0

    def test_partial_unavailability_mixes_decisions(self):
        degraded = run_degraded_phi_cubic(
            REFERENCE_POLICY,
            PRESET,
            unavailability=0.5,
            seed=3,
            outage_period_s=2.0,
            staleness_ttl_s=1.0,
        )
        counts = degraded.decision_counts
        assert counts["fresh"] > 0
        assert counts["stale"] + counts["fallback"] > 0
        assert degraded.channel_stats.failures > 0

    def test_lossy_channel_reports_recover(self):
        degraded = run_degraded_phi_cubic(
            REFERENCE_POLICY,
            PRESET,
            unavailability=0.5,
            seed=3,
            outage_period_s=2.0,
            channel_config=ChannelConfig(max_retries=1, deadline_s=0.5),
        )
        # Reports queued during outages were flushed once the server
        # returned; nothing is stranded at end of run unless the run
        # ended inside an outage window.
        assert degraded.pending_reports <= degraded.decision_counts["fallback"]

    def test_scheduled_outages_reach_the_flight_recorder(self):
        # X4's outage windows must reach the recorder, or stale/fallback
        # decisions have no window to blame.
        def run():
            return run_degraded_phi_cubic(
                REFERENCE_POLICY,
                TABLE3_REMY,
                unavailability=0.5,
                seed=1,
                duration_s=6.0,
                outage_period_s=2.0,
            )

        unarmed = run()
        with flightrec.use() as rec:
            armed = run()
        windows = fault_windows(rec.records())
        assert [(w["start"], w["end"]) for w in windows] == [
            (0.0, 1.0), (2.0, 3.0), (4.0, 5.0)
        ]
        edges = [r["kind"] for r in rec.records() if r["layer"] == "fault"]
        assert edges == ["fault_begin", "fault_end"] * 3
        assert armed.decision_counts["stale"] + armed.decision_counts["fallback"] > 0
        assert armed.metrics == unarmed.metrics
        assert armed.decision_counts == unarmed.decision_counts
        assert armed.result.events_processed == unarmed.result.events_processed

    def test_sweep_rows_cover_fractions(self):
        rows = run_fault_sweep(
            DEGRADED, REFERENCE_POLICY, PRESET, {"unavailability": (0.0, 1.0)},
            seeds=(3,),
        ).rows
        assert [row.axes["unavailability"] for row in rows] == [0.0, 1.0]
        assert all(row.mean_power_l > 0 for row in rows)
        assert rows[1].accounting["decision_counts"]["fresh"] == 0
