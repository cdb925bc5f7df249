"""Tests for the experiment harness (scenario runners, presets)."""

import pytest

from repro.experiments import (
    FIG2A_LOW_UTILIZATION,
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    run_cubic_fixed,
    run_incremental_deployment,
    run_phi_cubic,
    run_preset,
    run_table2_sweep,
)
from repro.experiments.dumbbell import ExperimentEnv
from repro.experiments.scenarios import ScenarioPreset
from repro.metrics import summarize_connections
from repro.phi import REFERENCE_POLICY, SharingMode
from repro.simnet import DumbbellConfig
from repro.transport import CubicParams, CubicSender
from repro.workload import OnOffConfig

#: A small, fast preset used throughout this module.
QUICK = ScenarioPreset(
    name="quick",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=50_000, mean_off_s=0.3),
    duration_s=10.0,
    description="fast test preset",
)

QUICK_LONG = ScenarioPreset(
    name="quick-long",
    config=DumbbellConfig(n_senders=6),
    workload=None,
    duration_s=20.0,
    description="fast long-running preset",
)


class TestPresets:
    def test_table3_matches_paper(self):
        assert TABLE3_REMY.config.bottleneck_bandwidth_bps == 15e6
        assert TABLE3_REMY.config.rtt_s == pytest.approx(0.150)
        assert TABLE3_REMY.config.n_senders == 8
        assert TABLE3_REMY.workload.mean_on_bytes == 100_000
        assert TABLE3_REMY.workload.mean_off_s == 0.5

    def test_fig2a_workload(self):
        assert FIG2A_LOW_UTILIZATION.workload.mean_on_bytes == 500_000
        assert FIG2A_LOW_UTILIZATION.workload.mean_off_s == 2.0

    def test_fig2c_is_long_running(self):
        assert FIG2C_LONG_RUNNING.workload is None


class TestEnvCreation:
    def test_env_wires_monitor(self):
        env = ExperimentEnv.create(DumbbellConfig(n_senders=2), seed=1)
        assert env.monitor.link is env.topology.bottleneck
        assert env.bottleneck_capacity_bps == 15e6

    def test_envs_differ_by_seed(self):
        a = ExperimentEnv.create(seed=1).rngs.stream("x").random(3)
        b = ExperimentEnv.create(seed=2).rngs.stream("x").random(3)
        assert list(a) != list(b)


class TestOnOffRunner:
    def test_basic_run(self):
        result = run_cubic_fixed(CubicParams.default(), QUICK, seed=0)
        assert result.connections > 0
        assert result.metrics.throughput_mbps > 0
        assert 0 <= result.mean_utilization <= 1
        assert len(result.per_sender_stats) == 4

    def test_reproducible(self):
        a = run_cubic_fixed(CubicParams.default(), QUICK, seed=5)
        b = run_cubic_fixed(CubicParams.default(), QUICK, seed=5)
        assert a.metrics.throughput_mbps == b.metrics.throughput_mbps
        assert a.connections == b.connections

    def test_different_seeds_differ(self):
        a = run_cubic_fixed(CubicParams.default(), QUICK, seed=1)
        b = run_cubic_fixed(CubicParams.default(), QUICK, seed=2)
        assert a.metrics.throughput_mbps != b.metrics.throughput_mbps

    def test_sender_metrics_subset(self):
        result = run_cubic_fixed(CubicParams.default(), QUICK, seed=0)
        subset = summarize_connections(
            [stats for slot in (0, 1) for stats in result.per_sender_stats[slot]],
            bottleneck_loss_rate=result.bottleneck_drop_rate,
            mean_utilization=result.mean_utilization,
        )
        full = result.metrics
        assert subset.connections <= full.connections

    def test_throughput_bounded_by_capacity(self):
        result = run_cubic_fixed(CubicParams.default(), QUICK, seed=0)
        assert result.metrics.throughput_mbps <= 15.0 * 1.05


@pytest.fixture(scope="module")
def long_run():
    """The one QUICK_LONG run both long-running tests read."""
    return run_cubic_fixed(CubicParams.default(), QUICK_LONG, seed=0)


class TestLongRunningRunner:
    def test_high_utilization(self, long_run):
        result = long_run
        assert result.mean_utilization > 0.8
        assert result.connections == 6

    def test_stats_are_partial(self, long_run):
        result = long_run
        for sender_stats in result.per_sender_stats:
            for stats in sender_stats:
                assert not stats.completed
                assert stats.bytes_goodput > 0


class TestPhiRunner:
    def test_practical_mode_runs(self):
        result = run_phi_cubic(
            REFERENCE_POLICY, QUICK, SharingMode.PRACTICAL, seed=0
        )
        assert result.connections > 0

    def test_ideal_mode_runs(self):
        result = run_phi_cubic(REFERENCE_POLICY, QUICK, SharingMode.IDEAL, seed=0)
        assert result.connections > 0

    def test_none_mode_rejected(self):
        with pytest.raises(ValueError):
            run_phi_cubic(REFERENCE_POLICY, QUICK, SharingMode.NONE)


class TestTable2Sweep:
    def test_runs_equal_per_seed_run_cubic_fixed(self):
        grid = [
            CubicParams.default(),
            CubicParams(window_init=8, initial_ssthresh=32, beta=0.3),
        ]
        results, _ = run_table2_sweep(
            QUICK, grid, n_runs=2, base_seed=5, duration_s=4.0, n_workers=1
        )
        assert [result.params for result in results] == grid
        for result in results:
            assert result.runs == [
                run_cubic_fixed(result.params, QUICK, seed=5 + run, duration_s=4.0).metrics
                for run in range(2)
            ]
            assert result.runs[0] != result.runs[1]


class TestIncrementalRunner:
    def test_populations_split(self):
        result = run_incremental_deployment(
            CubicParams(window_init=16, initial_ssthresh=64, beta=0.3),
            QUICK,
            modified_fraction=0.5,
            seed=0,
        )
        assert result.modified.connections > 0
        assert result.unmodified.connections > 0
        total = result.modified.connections + result.unmodified.connections
        assert total == result.overall.connections

    def test_long_running_preset_rejected(self):
        with pytest.raises(ValueError):
            run_incremental_deployment(
                CubicParams.default(), QUICK_LONG, modified_fraction=0.5
            )


class TestSenders:
    @pytest.mark.parametrize("preset", [QUICK, QUICK_LONG], ids=["onoff", "long-running"])
    def test_senders_run_once_before_the_first_flow(self, preset):
        log = []

        def senders(env):
            log.append(("senders", env.sim.events_processed))

            def factory(*args):
                log.append("flow")
                return CubicSender(*args)

            return factory

        run_preset(senders, preset, seed=0, duration_s=3.0)
        assert log[0] == ("senders", 0)
        assert log.count("flow") >= preset.config.n_senders
        assert log[1:] == ["flow"] * (len(log) - 1)

    def test_one_factory_per_slot(self):
        result = run_preset(
            lambda env: [CubicSender] * QUICK.config.n_senders,
            QUICK,
            seed=3,
            duration_s=4.0,
        )
        assert result == run_preset(lambda env: CubicSender, QUICK, seed=3, duration_s=4.0)

    def test_factory_count_must_match_slots(self):
        with pytest.raises(ValueError, match="3 sender factories for 4 slots"):
            run_preset(lambda env: [CubicSender] * 3, QUICK, seed=0, duration_s=1.0)

    def test_slot_order_refused_on_long_running(self):
        with pytest.raises(ValueError, match="on/off workloads only"):
            run_preset(
                lambda env: CubicSender, QUICK_LONG, slot_order=range(6), duration_s=1.0
            )
