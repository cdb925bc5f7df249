"""Additional scenario-harness behaviours."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    ALL_PRESETS,
    FIG2C_LONG_RUNNING,
    FIG4_INCREMENTAL,
    run_cubic_fixed,
    run_incremental_deployment,
)
from repro.experiments.scenarios import ScenarioPreset
from repro.simnet import DumbbellConfig, RedQueue
from repro.transport import CubicParams
from repro.workload import OnOffConfig

TINY = ScenarioPreset(
    name="tiny-extra",
    config=DumbbellConfig(n_senders=2),
    workload=OnOffConfig(mean_on_bytes=30_000, mean_off_s=0.2),
    duration_s=8.0,
    description="",
)


class TestPresetIntegrity:
    def test_all_presets_unique_names(self):
        names = [p.name for p in ALL_PRESETS]
        assert len(set(names)) == len(names)

    def test_all_presets_buildable(self):
        for preset in ALL_PRESETS:
            assert preset.config.buffer_bytes > 0
            if preset.workload is not None:
                assert preset.workload.mean_on_bytes > 0

    def test_fig4_runs_at_moderate_utilization(self):
        result = run_cubic_fixed(
            CubicParams.default(), FIG4_INCREMENTAL, seed=0, duration_s=15.0
        )
        assert result.mean_utilization < 0.99


class TestDurationOverride:
    def test_duration_override_shortens_run(self):
        short = run_cubic_fixed(CubicParams.default(), TINY, seed=1, duration_s=4.0)
        long = run_cubic_fixed(CubicParams.default(), TINY, seed=1, duration_s=12.0)
        assert long.connections >= short.connections

    def test_default_duration_from_preset(self):
        result = run_cubic_fixed(CubicParams.default(), TINY, seed=1)
        assert result.duration_s == TINY.duration_s


class TestMonitorPeriod:
    @pytest.mark.parametrize(
        "preset",
        [TINY, replace(FIG2C_LONG_RUNNING, config=DumbbellConfig(n_senders=2))],
        ids=["onoff", "long-running"],
    )
    def test_monitor_period_reaches_the_link_monitor(self, preset):
        envs = []

        def capture(env):
            envs.append(env)
            return []

        run_cubic_fixed(
            CubicParams.default(),
            preset,
            seed=0,
            duration_s=2.0,
            monitor_period_s=0.5,
            fault_hook=capture,
        )
        (env,) = envs
        assert env.monitor.period_s == 0.5


class TestQueueSwappedByTheHook:
    def test_the_loss_rate_is_the_swapped_queue_s(self):
        def red_bottleneck(env):
            buffer_bytes = env.topology.config.buffer_bytes
            env.topology.bottleneck.queue = RedQueue(
                buffer_bytes,
                lambda: env.sim.now,
                np.random.default_rng(1),
                min_thresh_bytes=0.1 * buffer_bytes,
                max_thresh_bytes=0.4 * buffer_bytes,
            )

        result = run_cubic_fixed(
            CubicParams.default(),
            replace(FIG2C_LONG_RUNNING, config=DumbbellConfig(n_senders=16)),
            seed=1,
            duration_s=4.0,
            fault_hook=red_bottleneck,
        )
        # The RED queue, not the drop-tail one it replaced, is what dropped.
        assert result.bottleneck_drop_rate > 0
        assert result.metrics.loss_rate == result.bottleneck_drop_rate


class TestIncrementalFractions:
    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_degenerate_fractions(self, fraction):
        outcome = run_incremental_deployment(
            CubicParams(window_init=16, initial_ssthresh=64, beta=0.3),
            TINY,
            modified_fraction=fraction,
            seed=2,
        )
        if fraction == 0.0:
            assert outcome.modified.connections == 0
            assert outcome.unmodified.connections > 0
        else:
            assert outcome.unmodified.connections == 0
            assert outcome.modified.connections > 0

    def test_metadata_recorded(self):
        outcome = run_incremental_deployment(
            CubicParams(window_init=16, initial_ssthresh=64, beta=0.3),
            TINY,
            modified_fraction=0.5,
            seed=2,
        )
        assert outcome.modified_fraction == 0.5
