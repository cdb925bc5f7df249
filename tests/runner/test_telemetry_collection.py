"""Worker telemetry capture and deterministic merge through the runner."""

import json

from repro import telemetry
from repro.runner.cache import MemoryCache, NullCache
from repro.runner.core import SweepPoint, SweepRunner, SweepSpec, evaluate_point

from .conftest import MINI_GRID, MINI_PRESET


def _point(params, seed=1, run_index=0):
    return SweepPoint(params=params, run_index=run_index, seed=seed)


def _run(n_workers, cache=None, grid=None):
    with telemetry.use() as tele:
        runner = SweepRunner(
            MINI_PRESET,
            n_workers=n_workers,
            cache=cache if cache is not None else NullCache(),
        )
        outcome = runner.run(grid if grid is not None else MINI_GRID, n_runs=1)
        parent = tele.registry.snapshot()
    return outcome, parent


class TestWorkerCapture:
    def test_evaluate_point_captures_snapshot_when_asked(self):
        spec = SweepSpec(preset=MINI_PRESET, collect_telemetry=True)
        result = evaluate_point(spec, _point(MINI_GRID[0]))
        assert result.telemetry is not None
        assert result.telemetry["counters"]["sim.events"] == float(
            result.events_processed
        )
        assert result.telemetry["gauges"]["sim.clock_s"]["value"] > 0.0

    def test_evaluate_point_skips_snapshot_by_default(self):
        spec = SweepSpec(preset=MINI_PRESET)
        result = evaluate_point(spec, _point(MINI_GRID[0]))
        assert result.telemetry is None

    def test_telemetry_flag_does_not_change_results_or_cache_key(self):
        plain = evaluate_point(SweepSpec(preset=MINI_PRESET), _point(MINI_GRID[0]))
        collected = evaluate_point(
            SweepSpec(preset=MINI_PRESET, collect_telemetry=True),
            _point(MINI_GRID[0]),
        )
        assert plain.identical_to(collected)
        assert plain.key == collected.key
        assert "telemetry" not in collected.to_dict()

    def test_worker_capture_does_not_leak_into_caller_session(self):
        spec = SweepSpec(preset=MINI_PRESET, collect_telemetry=True)
        with telemetry.use() as tele:
            evaluate_point(spec, _point(MINI_GRID[0]))
            # The point ran in its own scoped session; the caller's
            # registry saw none of the engine counters.
            assert "sim.events" not in tele.registry.snapshot()["counters"]


class TestRunnerMerge:
    def test_enabled_session_turns_on_collection_and_merges(self):
        outcome, parent = _run(n_workers=1)
        assert outcome.telemetry is not None
        merged = outcome.telemetry
        total_events = sum(r.events_processed for r in outcome.points)
        assert merged["counters"]["sim.events"] == float(total_events)
        assert merged["counters"]["sim.run_calls"] == float(len(outcome.points))
        # Parent-side rollups.
        assert parent["counters"]["runner.cache_misses"] == float(len(MINI_GRID))
        assert parent["counters"]["runner.cache_hits"] == 0.0
        wall = parent["histograms"]["runner.point_wall_s"]
        assert wall["count"] == len(MINI_GRID)
        assert outcome.provenance == {r.key: "computed" for r in outcome.points}

    def test_disabled_session_collects_nothing(self):
        runner = SweepRunner(MINI_PRESET, n_workers=1, cache=NullCache())
        outcome = runner.run(MINI_GRID[:1], n_runs=1)
        assert outcome.telemetry is None
        assert all(r.telemetry is None for r in outcome.points)

    def test_collection_ends_with_the_session(self):
        """A run under a live session must not leave the runner collecting:
        its next run, with no session, evaluates points without one."""
        runner = SweepRunner(MINI_PRESET, n_workers=1, cache=NullCache())
        with telemetry.use():
            assert runner.run(MINI_GRID[:1], n_runs=1).telemetry is not None
        outcome = runner.run(MINI_GRID[:1], n_runs=1)
        assert outcome.telemetry is None
        assert all(r.telemetry is None for r in outcome.points)

    def test_serial_and_parallel_merge_bit_identically(self):
        serial, _ = _run(n_workers=1, grid=MINI_GRID[:2])
        parallel, _ = _run(n_workers=2, grid=MINI_GRID[:2])
        assert json.dumps(serial.telemetry, sort_keys=True) == json.dumps(
            parallel.telemetry, sort_keys=True
        )

    def test_cached_points_report_cached_provenance(self):
        cache = MemoryCache()
        _run(n_workers=1, cache=cache)
        outcome, parent = _run(n_workers=1, cache=cache)
        assert outcome.provenance == {r.key: "cached" for r in outcome.points}
        assert parent["counters"]["runner.cache_hits"] == float(len(MINI_GRID))
        # Cached results were stored without telemetry, so nothing merges.
        assert outcome.telemetry == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
