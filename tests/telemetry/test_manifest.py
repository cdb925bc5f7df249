"""Tests for run manifests: build, validate, round-trip, summarize."""

import json

import pytest

from repro import telemetry
from repro.experiments.scenarios import ScenarioPreset
from repro.runner import ENGINE_SIGNATURE, SweepRunner
from repro.runner.cache import DiskCache
from repro.simnet.topology import DumbbellConfig
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    git_describe,
    load_manifest,
    run_manifest,
    summarize_manifest,
    sweep_manifest,
    validate_manifest,
    write_manifest,
)
from repro.telemetry.registry import LATENCY_BUCKETS_S, histogram_percentile
from repro.transport.cubic import cubic_sweep_grid
from repro.workload.onoff import OnOffConfig

TINY_PRESET = ScenarioPreset(
    name="tiny-telemetry",
    config=DumbbellConfig(n_senders=2),
    workload=OnOffConfig(mean_on_bytes=40_000, mean_off_s=0.5),
    duration_s=1.0,
    description="minimal fixture for manifest tests",
)

TINY_GRID = list(
    cubic_sweep_grid(
        ssthresh_range=[2.0, 64.0], window_init_range=[4.0], beta_range=[0.2]
    )
)


def _sweep_with_telemetry(cache=None, **runner_kwargs):
    with telemetry.use() as tele:
        runner = SweepRunner(
            TINY_PRESET,
            n_workers=1,
            cache=cache,
            **runner_kwargs,
        )
        outcome = runner.run(TINY_GRID, n_runs=1, base_seed=0)
        snapshots = [tele.registry.snapshot()]
        if outcome.telemetry is not None:
            snapshots.append(outcome.telemetry)
        metrics = telemetry.merge_snapshots(snapshots)
    return outcome, metrics


class TestGitDescribe:
    def test_inside_repo_returns_string(self):
        described = git_describe()
        assert described is None or isinstance(described, str)

    def test_outside_repo_returns_none(self, tmp_path):
        assert git_describe(cwd=str(tmp_path)) is None

    def test_no_git_returns_none(self, monkeypatch):
        import subprocess

        def missing(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", missing)
        assert git_describe() is None


class TestRunManifest:
    def test_valid_and_round_trips(self, tmp_path):
        with telemetry.use() as tele:
            tele.registry.counter("sim.events").inc(100)
            wall = tele.registry.histogram("runner.point_wall_s", LATENCY_BUCKETS_S)
            for _ in range(20):
                wall.observe(0.005)
            manifest = run_manifest(
                command="cubic",
                preset_name="tiny-telemetry",
                seed=3,
                duration_s=1.0,
                metrics=tele.registry.snapshot(),
            )
        assert validate_manifest(manifest) == []
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["engine_signature"] == ENGINE_SIGNATURE
        assert manifest["seeds"] == {"seed": 3}
        path = tmp_path / "manifest.json"
        write_manifest(manifest, str(path))
        loaded = load_manifest(str(path))
        assert loaded == json.loads(json.dumps(manifest))
        # Percentiles are recoverable from the loaded histogram: every
        # observation was 5 ms, and bucket edges bound the estimate.
        histogram = loaded["metrics"]["histograms"]["runner.point_wall_s"]
        assert histogram["count"] == 20
        assert 0.002 <= histogram_percentile(histogram, 50) <= 0.005
        assert histogram_percentile(histogram, 99) <= histogram["max"] == 0.005

    def test_config_hash_tracks_config(self):
        a = run_manifest(
            command="cubic", preset_name="p", seed=0, duration_s=1.0,
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
        )
        b = run_manifest(
            command="cubic", preset_name="p", seed=0, duration_s=2.0,
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
        )
        assert a["config_hash"] != b["config_hash"]


class TestValidateManifest:
    def _valid(self):
        return run_manifest(
            command="x", preset_name="p", seed=0, duration_s=1.0,
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
        )

    def test_not_a_dict(self):
        assert validate_manifest([]) == ["manifest is not a JSON object"]

    def test_wrong_schema(self):
        manifest = self._valid()
        manifest["schema"] = "nope/0"
        assert any("schema" in error for error in validate_manifest(manifest))

    def test_missing_key(self):
        manifest = self._valid()
        del manifest["seeds"]
        assert "missing key 'seeds'" in validate_manifest(manifest)

    def test_bad_metrics_section(self):
        manifest = self._valid()
        manifest["metrics"] = {"counters": {}}
        errors = validate_manifest(manifest)
        assert any("gauges" in error for error in errors)

    def test_bad_histogram_shape(self):
        manifest = self._valid()
        manifest["metrics"]["histograms"]["h"] = {
            "bounds": [1.0, 2.0], "bucket_counts": [1, 2],
        }
        assert any("bounds+1" in error for error in validate_manifest(manifest))

    def test_wrong_type(self):
        manifest = self._valid()
        manifest["config"] = []
        assert validate_manifest(manifest) == ["'config' has wrong type list"]

    def test_malformed_histograms_and_points(self):
        manifest = self._valid()
        manifest["metrics"]["histograms"] = {"a": 3, "b": {"bounds": [1.0]}}
        manifest["points"] = [7, {"key": "k", "seed": 0, "status": "computed"}]
        assert validate_manifest(manifest) == [
            "histogram 'a' is not an object",
            "histogram 'b' lacks bounds/bucket_counts",
            "points[0] is not an object",
            "points[1] missing 'retries'",
            "points[1] missing 'failures'",
        ]

    def test_bad_point_status(self):
        manifest = self._valid()
        manifest["points"].append(
            {"key": "k", "seed": 0, "status": "imaginary",
             "retries": 0, "failures": []}
        )
        assert any("unknown status" in error for error in validate_manifest(manifest))

    def test_point_retries_must_count_its_failures(self):
        manifest = self._valid()
        crash = {"kind": "crash", "message": "worker died", "attempt": 1}
        manifest["points"].append(
            {"key": "k", "seed": 0, "status": "computed",
             "retries": 1, "failures": [crash]}
        )
        assert validate_manifest(manifest) == []
        manifest["points"][0]["retries"] = 0
        assert validate_manifest(manifest) == [
            "points[0] has retries 0 but 1 failure(s)"
        ]

    def test_totals_quarantined_must_count_the_list(self):
        manifest = self._valid()
        manifest["totals"]["quarantined"] = 0
        assert validate_manifest(manifest) == []
        manifest["totals"]["quarantined"] = 1
        assert validate_manifest(manifest) == [
            "totals.quarantined is 1 but 0 point(s) are quarantined"
        ]

    def test_n_points_must_count_points_and_quarantined(self):
        manifest = self._valid()
        manifest["quarantined"].append(
            {"index": 0, "seed": 0, "attempts": 3, "failures": []}
        )
        manifest["config"]["n_points"] = 1
        assert validate_manifest(manifest) == []
        manifest["config"]["n_points"] = 2
        assert validate_manifest(manifest) == [
            "config.n_points is 2 but 1 point(s) are listed"
        ]

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_manifest(str(path))


class TestSweepManifest:
    def test_points_and_totals(self, tmp_path):
        outcome, metrics = _sweep_with_telemetry()
        manifest = sweep_manifest(outcome, metrics=metrics)
        assert validate_manifest(manifest) == []
        assert len(manifest["points"]) == len(TINY_GRID)
        for point in manifest["points"]:
            assert point["status"] == "computed"
            assert point["retries"] == 0
            assert point["events_processed"] > 0
            assert point["metrics"]["throughput_mbps"] >= 0.0
        totals = manifest["totals"]
        assert totals["points"] == len(TINY_GRID)
        assert totals["cache_hits"] == 0
        assert totals["quarantined"] == 0
        # The merged worker metrics made it in.
        assert manifest["metrics"]["counters"]["sim.events"] > 0
        path = tmp_path / "sweep_manifest.json"
        write_manifest(manifest, str(path))
        assert validate_manifest(load_manifest(str(path))) == []

    def test_cache_hits_show_as_cached_provenance(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        _sweep_with_telemetry(cache=cache)
        outcome, metrics = _sweep_with_telemetry(cache=cache)
        manifest = sweep_manifest(outcome, metrics=metrics)
        assert manifest["totals"]["cache_hits"] == len(TINY_GRID)
        assert all(p["status"] == "cached" for p in manifest["points"])
        # Cache hits are recoverable from the manifest without re-running.
        assert manifest["metrics"]["counters"]["runner.cache_hits"] == float(
            len(TINY_GRID)
        )

    def test_summarize_renders_table(self):
        outcome, metrics = _sweep_with_telemetry()
        manifest = sweep_manifest(outcome, metrics=metrics)
        rendered = summarize_manifest(manifest)
        assert "engine " + ENGINE_SIGNATURE in rendered
        assert "sim.events" in rendered
        assert "computed" in rendered
        assert "p99" in rendered

    def test_quarantined_points_are_listed_and_summarized(self):
        import dataclasses

        from repro.runner.resilience import PointFailure, QuarantinedPoint

        outcome, metrics = _sweep_with_telemetry()
        lost = outcome.points[-1]
        point = dataclasses.replace(outcome.points[0], run_index=1, seed=1)
        failure = PointFailure("crash", "worker died", 3)
        outcome = dataclasses.replace(
            outcome,
            points=outcome.points[:-1],
            quarantined=[QuarantinedPoint(1, point, 3, (failure,))],
        )
        manifest = sweep_manifest(outcome, metrics=metrics)
        assert validate_manifest(manifest) == []
        (entry,) = manifest["quarantined"]
        assert (entry["seed"], entry["attempts"]) == (1, 3)
        assert lost.key not in {p["key"] for p in manifest["points"]}
        rendered = summarize_manifest(manifest, max_points=0)
        assert f"... {len(TINY_GRID) - 1} more point(s)" in rendered
        assert "quarantined:\n  #1 seed=1 attempts=3 last=crash: worker died" in rendered

    @pytest.mark.parametrize("max_points", [-1, 2.5])
    def test_summarize_refuses_a_bad_point_count(self, max_points):
        # -1 used to show all points but one, then "... 6 more point(s)".
        manifest = run_manifest(
            command="x", preset_name="p", seed=0, duration_s=1.0,
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
        )
        with pytest.raises(ValueError, match="max_points must be an integer >= 0"):
            summarize_manifest(manifest, max_points=max_points)

