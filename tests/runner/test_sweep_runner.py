"""The sweep engine: determinism, caching, merge order, progress.

The central property (ISSUE 3): the same seed and grid point pushed
through the new parallel runner and the old serial path must yield
bit-identical ``FlowRecord`` s.
"""

from dataclasses import replace

import pytest

from repro.experiments.scenarios import TABLE3_REMY, ScenarioPreset, run_cubic_fixed
from repro.experiments.sweep import run_table2_sweep
from repro.phi.optimizer import leave_one_out, select_optimal
from repro.runner.cache import DiskCache, NullCache
from repro.runner import machine_fingerprint
from repro.runner.core import SweepRunner, result_mismatches
from repro.runner.progress import SweepProgress
from repro.runner.records import flow_records
from repro.simnet.topology import DumbbellConfig
from repro.transport.cubic import cubic_sweep_grid
from repro.workload.onoff import OnOffConfig

#: A miniature preset so each point simulates in well under a second.
MINI_PRESET = ScenarioPreset(
    name="mini-sweep",
    config=DumbbellConfig(n_senders=3),
    workload=OnOffConfig(mean_on_bytes=60_000, mean_off_s=0.5),
    duration_s=2.0,
    description="tiny grid-sweep fixture",
)

MINI_GRID = list(
    cubic_sweep_grid(
        ssthresh_range=[2.0, 64.0],
        window_init_range=[4.0],
        beta_range=[0.2, 0.7],
    )
)


class TestDeterminism:
    def test_parallel_matches_old_serial_path_bit_identically(self):
        # Old serial path: run_cubic_fixed directly, seed = base + run.
        outcome = SweepRunner(MINI_PRESET, n_workers=2).run(
            MINI_GRID, n_runs=2, base_seed=3
        )
        index = 0
        for params in MINI_GRID:
            for run in range(2):
                legacy = run_cubic_fixed(params, MINI_PRESET, seed=3 + run)
                point = outcome.points[index]
                index += 1
                assert point.params == params
                assert point.seed == 3 + run
                assert point.flows == flow_records(legacy.per_sender_stats)
                assert point.metrics == legacy.metrics

    def test_serial_and_parallel_outcomes_identical(self):
        serial = SweepRunner(MINI_PRESET, n_workers=2, cache=NullCache()).run(
            MINI_GRID, n_runs=2, parallel=False
        )
        parallel = SweepRunner(MINI_PRESET, n_workers=2, cache=NullCache()).run(
            MINI_GRID, n_runs=2
        )
        assert len(serial.points) == len(parallel.points) == len(MINI_GRID) * 2
        for a, b in zip(serial.points, parallel.points):
            assert a.identical_to(b)

    def test_result_mismatches_matches_by_key_and_names_each_point(self):
        outcome = SweepRunner(MINI_PRESET, n_workers=1, cache=NullCache()).run(
            MINI_GRID[:3], n_runs=1
        )
        a, b, c = outcome.points
        assert result_mismatches([a, b], [b, a]) == []
        assert result_mismatches([a, b, c], [replace(b, events_processed=0), c]) == [
            f"point {a.key[:12]} missing from the second set",
            f"point {b.key[:12]} differs",
        ]
        assert result_mismatches([a], [a, c]) == [
            f"point {c.key[:12]} missing from the first set"
        ]

    def test_merge_order_is_grid_times_run_order(self):
        outcome = SweepRunner(MINI_PRESET, n_workers=2).run(MINI_GRID, n_runs=2)
        expected = [
            (params, run) for params in MINI_GRID for run in range(2)
        ]
        assert [(p.params, p.run_index) for p in outcome.points] == expected


class TestCachingBehaviour:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        runner = SweepRunner(MINI_PRESET, n_workers=1, cache=cache)
        first = runner.run(MINI_GRID, n_runs=1)
        assert first.cache_hits == 0
        second = runner.run(MINI_GRID, n_runs=1)
        assert second.cache_hits == len(MINI_GRID)
        for a, b in zip(first.points, second.points):
            assert a.identical_to(b)

    def test_widening_grid_only_pays_for_new_points(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        runner = SweepRunner(MINI_PRESET, n_workers=1, cache=cache)
        runner.run(MINI_GRID[:2], n_runs=1)
        outcome = runner.run(MINI_GRID, n_runs=1)
        assert outcome.cache_hits == 2

    def test_events_per_second_counts_only_points_this_run_computed(self, tmp_path):
        # A cached point's events cost no wall time here; dividing them
        # by this run's wall reported 12 M events/s on a warm cache.
        runner = SweepRunner(MINI_PRESET, n_workers=1, cache=DiskCache(str(tmp_path)))
        runner.run(MINI_GRID[:2], n_runs=1)
        half_warm = runner.run(MINI_GRID, n_runs=1)
        computed = sum(
            point.events_processed
            for point in half_warm.points
            if half_warm.provenance[point.key] == "computed"
        )
        assert 0 < computed < half_warm.total_events
        assert half_warm.events_per_second == computed / half_warm.wall_seconds

        warm = runner.run(MINI_GRID, n_runs=1)
        assert warm.events_per_second == 0.0
        assert warm.total_events == half_warm.total_events > 0
        assert replace(half_warm, wall_seconds=0.0).events_per_second == 0.0

    def test_different_seed_misses_cache(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        runner = SweepRunner(MINI_PRESET, n_workers=1, cache=cache)
        runner.run(MINI_GRID[:1], n_runs=1, base_seed=0)
        outcome = runner.run(MINI_GRID[:1], n_runs=1, base_seed=99)
        assert outcome.cache_hits == 0

    def test_disk_cache_round_trip_is_bit_identical(self, tmp_path):
        directory = str(tmp_path / "sweep-cache")
        cold = SweepRunner(
            MINI_PRESET, n_workers=1, cache=DiskCache(directory)
        ).run(MINI_GRID[:2], n_runs=1)
        warm = SweepRunner(
            MINI_PRESET, n_workers=1, cache=DiskCache(directory)
        ).run(MINI_GRID[:2], n_runs=1)
        assert warm.cache_hits == 2
        for a, b in zip(cold.points, warm.points):
            assert a.identical_to(b)


class TestOptimizerCompat:
    def test_to_sweep_results_round_trips_through_optimizer(self):
        results, outcome = run_table2_sweep(
            MINI_PRESET, MINI_GRID, n_runs=2, n_workers=1
        )
        assert [r.params for r in results] == MINI_GRID
        assert all(len(r.runs) == 2 for r in results)
        best = select_optimal(results)
        assert best.params in MINI_GRID
        records = leave_one_out(results)
        assert len(records) == 2

    def test_default_grid_is_the_full_table2_grid(self):
        # Tasks only (not executed): the default grid is the 576-point
        # Table-2 grid with the paper's seed convention.
        runner = SweepRunner(TABLE3_REMY)
        tasks = runner.tasks(list(cubic_sweep_grid()), n_runs=8, base_seed=0)
        assert len(tasks) == 576 * 8
        assert {t.seed for t in tasks} == set(range(8))


class TestValidationAndProgress:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepRunner(MINI_PRESET, n_workers=0)

    def test_rejects_bad_run_count(self):
        with pytest.raises(ValueError):
            SweepRunner(MINI_PRESET).tasks(MINI_GRID, n_runs=0, base_seed=0)

    def test_rejects_a_grid_that_repeats_a_point(self):
        # Two tasks with one key: the serial check would report a point
        # "missing from the second set" although both runs agree.
        grid = [MINI_GRID[0], replace(MINI_GRID[0])]
        with pytest.raises(ValueError, match="points must be unique"):
            SweepRunner(MINI_PRESET).tasks(grid, n_runs=1, base_seed=0)

    def test_machine_fingerprint_agrees_with_default_workers(self):
        # perf/worker.py stamps every benchmark result with this.
        fingerprint = machine_fingerprint()
        assert set(fingerprint) == {"cpu_count", "usable_cpus", "python", "platform"}
        assert fingerprint["usable_cpus"] == SweepRunner(MINI_PRESET).n_workers
        assert fingerprint["cpu_count"] >= 1 and fingerprint["python"]

    def test_default_workers_without_cpu_affinity(self, monkeypatch):
        import os

        from repro.runner.core import _default_workers

        monkeypatch.delattr(os, "sched_getaffinity")
        assert _default_workers() == max(1, os.cpu_count() or 1)

    def test_console_progress_names_resumed_retried_and_quarantined_points(self):
        import io
        import time

        from repro.runner.progress import ConsoleProgress

        console = ConsoleProgress()
        console.stream = io.StringIO()
        console(SweepProgress(total=4, completed=4, cached=1, started_at=time.perf_counter(),
                              checkpointed=1, retries=2, quarantined=1))
        line = console.stream.getvalue()
        assert "cached=1 resumed=1 retries=2 quarantined=1 eta=0s" in line
        # A clock read before the sweep began reports no rate, and no eta.
        ahead = SweepProgress(total=4, completed=0, cached=0, started_at=time.perf_counter() + 60)
        assert ahead.points_per_second == 0.0 and ahead.eta_s is None

    def test_progress_reports_monotonic_to_completion(self):
        snapshots = []

        def reporter(progress: SweepProgress) -> None:
            snapshots.append((progress.completed, progress.total, progress.cached))

        SweepRunner(MINI_PRESET, n_workers=1, progress=reporter).run(
            MINI_GRID, n_runs=1
        )
        assert snapshots[0] == (0, len(MINI_GRID), 0)
        completed = [done for done, _, _ in snapshots]
        assert completed == sorted(completed)
        assert snapshots[-1][0] == len(MINI_GRID)

    def test_progress_counts_cache_hits(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        SweepRunner(MINI_PRESET, n_workers=1, cache=cache).run(MINI_GRID, n_runs=1)
        snapshots = []
        SweepRunner(
            MINI_PRESET, n_workers=1, cache=cache, progress=snapshots.append
        ).run(MINI_GRID, n_runs=1)
        assert snapshots[0].cached == len(MINI_GRID)
        assert snapshots[0].completed == len(MINI_GRID)

    def test_table2_sweep_disk_cache(self, tmp_path):
        directory = str(tmp_path / "cache")
        _, first = run_table2_sweep(
            MINI_PRESET, MINI_GRID[:2], n_runs=1, n_workers=1, cache=DiskCache(directory)
        )
        _, second = run_table2_sweep(
            MINI_PRESET, MINI_GRID[:2], n_runs=1, n_workers=1, cache=DiskCache(directory)
        )
        assert first.cache_hits == 0
        assert second.cache_hits == 2
