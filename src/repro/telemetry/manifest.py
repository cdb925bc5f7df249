"""Run manifests: one JSON document that explains a run after the fact.

A sweep (or single experiment) that ran with telemetry enabled emits a
``manifest.json`` recording everything needed to answer "what exactly
ran, and why did point #37 behave like that" *without re-running*:

- **identity** — engine signature, ``git describe``, a content hash of
  the configuration, the seed convention;
- **metrics** — the merged registry snapshot (engine, link, phi
  channel, runner), with histogram percentiles recoverable via
  :func:`repro.telemetry.registry.histogram_percentile`;
- **per-point rollups** — for every sweep point: key, params, seed,
  provenance (computed / cached / resumed), wall time, events, headline
  metrics, retry count, and the full failure history the supervisor
  recorded;
- **quarantine provenance** — points given up on, with their histories.

Table-2 sweeps (:func:`sweep_manifest`), fault sweeps
(:func:`fault_sweep_manifest`) and single runs (:func:`run_manifest`)
build those entries and the scenario's config block with the same
functions, so every manifest has one per-point schema.  The schema is
versioned (:data:`MANIFEST_SCHEMA`) and checked by
:func:`validate_manifest` (also exposed as a standalone script,
``scripts/validate_manifest.py``, for CI), including that retry and
quarantine totals agree with the entries they count.
"""

from __future__ import annotations

import json
import os
import subprocess
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runner.hashing import ENGINE_SIGNATURE, content_hash, plain
from .registry import histogram_percentile

MANIFEST_SCHEMA = "repro-telemetry-manifest/1"

__all__ = [
    "MANIFEST_SCHEMA",
    "fault_sweep_manifest",
    "git_describe",
    "load_manifest",
    "run_manifest",
    "summarize_manifest",
    "sweep_manifest",
    "validate_manifest",
    "write_manifest",
]


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty``, or None outside a checkout.

    Defaults to the directory holding this source tree — the manifest
    should describe the *code* that ran, regardless of the process CWD.
    """
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def _base_manifest(
    command: str,
    config: Dict[str, Any],
    seeds: Dict[str, Any],
    metrics: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    return {
        "schema": MANIFEST_SCHEMA,
        "created_unix": _time.time(),
        "command": command,
        "engine_signature": ENGINE_SIGNATURE,
        "git_describe": git_describe(),
        "config": config,
        "config_hash": content_hash(config),
        "seeds": seeds,
        "metrics": metrics
        if metrics is not None
        else {"counters": {}, "gauges": {}, "histograms": {}},
        "points": [],
        "quarantined": [],
        "totals": {},
    }


def _failure_dicts(failures: Sequence[Any]) -> List[Dict[str, Any]]:
    return [
        {"kind": f.kind, "message": f.message, "attempt": f.attempt}
        for f in failures
    ]


def _config_block(preset, duration_s: Optional[float]) -> Dict[str, Any]:
    """The scenario a sweep ran: preset, topology, workload, duration."""
    return {
        "preset": preset.name,
        "topology": plain(preset.config),
        "workload": plain(preset.workload),
        "duration_s": float(
            duration_s if duration_s is not None else preset.duration_s
        ),
    }


def _point_entry(
    result,
    *,
    key: str,
    params: Any,
    seed: int,
    run_index: int = 0,
    status: str = "computed",
    wall_seconds: Optional[float] = None,
    failures: Sequence[Any] = (),
) -> Dict[str, Any]:
    """One ``points[]`` entry, for every kind of manifest.

    ``result`` supplies the events and the headline metrics; ``failures``
    are the point's failed attempts, so ``retries`` is their count.
    """
    metrics = result.metrics
    return {
        "key": key,
        "params": params,
        "seed": seed,
        "run_index": run_index,
        "status": status,
        "wall_seconds": wall_seconds,
        "events_processed": result.events_processed,
        "retries": len(failures),
        "failures": _failure_dicts(failures),
        "metrics": {
            "throughput_mbps": metrics.throughput_mbps,
            "queueing_delay_ms": metrics.queueing_delay_ms,
            "loss_rate": metrics.loss_rate,
            "mean_utilization": metrics.mean_utilization,
            "power_l": metrics.power_l,
        },
    }


def _quarantined_entry(quarantined, params: Any, run_index: int = 0) -> Dict[str, Any]:
    """One ``quarantined[]`` entry: a point given up on, with its history."""
    return {
        "index": quarantined.index,
        "params": params,
        "seed": quarantined.point.seed,
        "run_index": run_index,
        "attempts": quarantined.attempts,
        "failures": _failure_dicts(quarantined.failures),
    }


def sweep_manifest(
    outcome,
    *,
    metrics: Optional[Dict[str, Any]] = None,
    command: str = "sweep",
    extra_config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a manifest from a :class:`~repro.runner.core.SweepOutcome`.

    ``metrics`` is the merged registry snapshot to embed (defaults to
    the outcome's own merged worker telemetry).  Per-point provenance,
    retry counts, and failure histories come from the fields the runner
    and supervisor recorded on the outcome.
    """
    spec = outcome.spec
    config = {
        **_config_block(spec.preset, spec.duration_s),
        "n_points": len(outcome.points) + len(outcome.quarantined),
        "n_runs": outcome.n_runs,
        **(extra_config or {}),
    }
    manifest = _base_manifest(
        command,
        config,
        {"base_seed": outcome.base_seed, "n_runs": outcome.n_runs},
        metrics if metrics is not None else outcome.telemetry,
    )
    for point in outcome.points:
        manifest["points"].append(
            _point_entry(
                point,
                key=point.key,
                params=point.params.as_dict(),
                seed=point.seed,
                run_index=point.run_index,
                status=outcome.provenance.get(point.key, "computed"),
                wall_seconds=point.wall_seconds,
                failures=outcome.failure_history.get(point.key, ()),
            )
        )
    for quarantined in outcome.quarantined:
        point = quarantined.point
        manifest["quarantined"].append(
            _quarantined_entry(quarantined, point.params.as_dict(), point.run_index)
        )
    manifest["totals"] = {
        "points": len(outcome.points),
        "cache_hits": outcome.cache_hits,
        "checkpoint_reused": outcome.checkpoint_reused,
        "recomputed": sum(
            1 for p in manifest["points"] if p["status"] == "computed"
        ),
        "retries": outcome.retries,
        "quarantined": len(outcome.quarantined),
        "pool_rebuilds": outcome.pool_rebuilds,
        "serial_fallback": outcome.serial_fallback,
        "workers": outcome.workers,
        "wall_seconds": outcome.wall_seconds,
        "total_events": outcome.total_events,
        "events_per_second": outcome.events_per_second,
    }
    return manifest


def run_manifest(
    *,
    command: str,
    preset_name: str,
    seed: int,
    duration_s: float,
    metrics: Dict[str, Any],
    result=None,
    extra_config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a manifest for a single (non-sweep) experiment run."""
    config: Dict[str, Any] = {
        "preset": preset_name,
        "duration_s": float(duration_s),
        **(extra_config or {}),
    }
    manifest = _base_manifest(command, config, {"seed": seed}, metrics)
    totals: Dict[str, Any] = {"points": 1}
    if result is not None:
        manifest["points"].append(
            _point_entry(
                result,
                key=content_hash(config),
                params=config.get("params"),
                seed=seed,
            )
        )
        totals["total_events"] = result.events_processed
        totals["connections"] = result.connections
    manifest["totals"] = totals
    return manifest


def fault_sweep_manifest(
    outcome,
    *,
    metrics: Optional[Dict[str, Any]] = None,
    extra_config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a manifest from a fault-sweep outcome.

    Works for any :class:`~repro.experiments.faultsweep.FaultScenario`:
    the scenario's name is the command, the sweep's fixed keyword
    arguments are the config block, ``params`` holds the point's axis
    values, and besides the usual transport metrics every point carries
    the control plane's own accounting in one ``accounting`` block — so
    the manifest alone answers "which faults were survived, by which
    layer, at what cost".  Totals aggregate every accounting field over
    the sweep and tabulate the baselines the envelope was checked
    against.
    """
    spec = outcome.spec
    scenario = spec.scenario
    results = outcome.points
    config = {
        **_config_block(spec.preset, spec.duration_s),
        **{key: plain(value) for key, value in spec.fixed.items()},
        "n_points": len(results) + len(outcome.quarantined),
        **(extra_config or {}),
    }
    seeds = {r.seed for r in results} | {q.point.seed for q in outcome.quarantined}
    manifest = _base_manifest(
        scenario.name,
        config,
        {"seeds": sorted(seeds)},
        metrics if metrics is not None else outcome.telemetry,
    )
    for point in results:
        entry = _point_entry(
            point,
            key=point.key,
            params=dict(point.params),
            seed=point.seed,
            wall_seconds=point.wall_seconds,
            failures=outcome.failure_history.get(point.key, ()),
        )
        entry["accounting"] = dict(point.accounting)
        manifest["points"].append(entry)
    for quarantined in outcome.quarantined:
        manifest["quarantined"].append(
            _quarantined_entry(quarantined, dict(quarantined.point.params))
        )
    manifest["totals"] = {
        "points": len(results),
        "total_events": sum(p.events_processed for p in results),
        **scenario.aggregate(results),
    }
    for baseline in scenario.baselines:
        runs = sorted(outcome.baselines[baseline.name].items())
        for table, metric in baseline.tables.items():
            manifest["totals"][table] = {
                "/".join([*(f"{v:g}" for v in where), str(seed)]): getattr(
                    run_metrics, metric
                )
                for (*where, seed), run_metrics in runs
            }
    return manifest


def write_manifest(manifest: Dict[str, Any], path: str) -> None:
    """Atomically write ``manifest`` as pretty JSON."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
    os.replace(tmp_path, path)


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest and check its schema tag."""
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    errors = validate_manifest(manifest)
    if errors:
        raise ValueError(
            f"{path} is not a valid telemetry manifest: " + "; ".join(errors)
        )
    return manifest


def validate_manifest(manifest: Any) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    if manifest.get("schema") != MANIFEST_SCHEMA:
        errors.append(
            f"schema is {manifest.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    for key, kind in (
        ("created_unix", (int, float)),
        ("command", str),
        ("engine_signature", str),
        ("config", dict),
        ("config_hash", str),
        ("seeds", dict),
        ("metrics", dict),
        ("points", list),
        ("quarantined", list),
        ("totals", dict),
    ):
        if key not in manifest:
            errors.append(f"missing key {key!r}")
        elif not isinstance(manifest[key], kind):
            errors.append(f"{key!r} has wrong type {type(manifest[key]).__name__}")
    metrics = manifest.get("metrics")
    if isinstance(metrics, dict):
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(section), dict):
                errors.append(f"metrics.{section} missing or not an object")
        for key, histogram in (metrics.get("histograms") or {}).items():
            if not isinstance(histogram, dict):
                errors.append(f"histogram {key!r} is not an object")
                continue
            bounds = histogram.get("bounds")
            counts = histogram.get("bucket_counts")
            if not isinstance(bounds, list) or not isinstance(counts, list):
                errors.append(f"histogram {key!r} lacks bounds/bucket_counts")
            elif len(counts) != len(bounds) + 1:
                errors.append(
                    f"histogram {key!r}: {len(counts)} buckets for "
                    f"{len(bounds)} bounds (want bounds+1)"
                )
    points = manifest.get("points")
    if isinstance(points, list):
        for index, point in enumerate(points):
            if not isinstance(point, dict):
                errors.append(f"points[{index}] is not an object")
                continue
            for key in ("key", "seed", "status", "retries", "failures"):
                if key not in point:
                    errors.append(f"points[{index}] missing {key!r}")
            if point.get("status") not in (
                "computed", "cached", "resumed", "quarantined", None
            ):
                errors.append(
                    f"points[{index}] has unknown status {point.get('status')!r}"
                )
            failures = point.get("failures")
            if (
                isinstance(failures, list)
                and "retries" in point
                and point["retries"] != len(failures)
            ):
                errors.append(
                    f"points[{index}] has retries {point['retries']} but "
                    f"{len(failures)} failure(s)"
                )
    quarantined = manifest.get("quarantined")
    if isinstance(points, list) and isinstance(quarantined, list):
        # Provenance totals must agree with the entries they count.
        for section, key, want, noun in (
            ("totals", "quarantined", len(quarantined), "quarantined"),
            ("config", "n_points", len(points) + len(quarantined), "listed"),
        ):
            block = manifest.get(section)
            if isinstance(block, dict) and key in block and block[key] != want:
                errors.append(
                    f"{section}.{key} is {block[key]} but {want} point(s) are {noun}"
                )
    return errors


def _percentiles(histogram: Dict[str, Any]) -> Tuple[float, float, float]:
    return (
        histogram_percentile(histogram, 50),
        histogram_percentile(histogram, 90),
        histogram_percentile(histogram, 99),
    )


def summarize_manifest(manifest: Dict[str, Any], max_points: int = 24) -> str:
    """Render a human-readable table from a manifest."""
    lines: List[str] = []
    created = _time.strftime(
        "%Y-%m-%d %H:%M:%S", _time.gmtime(manifest.get("created_unix", 0))
    )
    lines.append(
        f"manifest: {manifest.get('command')} "
        f"(engine {manifest.get('engine_signature')}, "
        f"git {manifest.get('git_describe') or 'unknown'}, {created} UTC)"
    )
    config = manifest.get("config", {})
    lines.append(
        f"config:   preset={config.get('preset')} "
        f"duration={config.get('duration_s')}s "
        f"hash={manifest.get('config_hash', '')[:12]}"
    )
    totals = manifest.get("totals", {})
    if totals:
        parts = []
        for key in (
            "points", "cache_hits", "checkpoint_reused", "recomputed",
            "retries", "quarantined", "pool_rebuilds", "workers",
        ):
            if key in totals:
                parts.append(f"{key}={totals[key]}")
        if "wall_seconds" in totals:
            parts.append(f"wall={totals['wall_seconds']:.2f}s")
        if "events_per_second" in totals:
            parts.append(f"{totals['events_per_second']:,.0f} events/s")
        lines.append("totals:   " + " ".join(parts))

    counters = manifest.get("metrics", {}).get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for key, value in counters.items():
            rendered = f"{value:,.0f}" if float(value).is_integer() else f"{value:,.4f}"
            lines.append(f"  {key:<52s} {rendered:>14s}")

    histograms = manifest.get("metrics", {}).get("histograms", {})
    live = {k: h for k, h in histograms.items() if h.get("count")}
    if live:
        lines.append("")
        lines.append(
            f"{'histogram':<44s} {'count':>8s} {'mean':>10s} "
            f"{'p50':>10s} {'p90':>10s} {'p99':>10s} {'max':>10s}"
        )
        for key, histogram in live.items():
            p50, p90, p99 = _percentiles(histogram)
            mean_value = histogram["sum"] / histogram["count"]
            lines.append(
                f"{key:<44s} {histogram['count']:>8d} {mean_value:>10.4g} "
                f"{p50:>10.4g} {p90:>10.4g} {p99:>10.4g} "
                f"{histogram['max']:>10.4g}"
            )

    points = manifest.get("points", [])
    if points:
        lines.append("")
        lines.append(
            f"{'#':>4s} {'status':<9s} {'seed':>5s} {'retries':>7s} "
            f"{'wall_s':>8s} {'events':>10s} {'thr_mbps':>9s} {'loss':>7s}"
        )
        for index, point in enumerate(points[:max_points]):
            metrics = point.get("metrics") or {}
            wall = point.get("wall_seconds")
            events = point.get("events_processed")
            lines.append(
                f"{index:>4d} {point.get('status', '?'):<9s} "
                f"{point.get('seed', 0):>5d} {point.get('retries', 0):>7d} "
                f"{(f'{wall:.3f}' if wall is not None else '--'):>8s} "
                f"{(f'{events:,}' if events is not None else '--'):>10s} "
                f"{metrics.get('throughput_mbps', 0.0):>9.2f} "
                f"{metrics.get('loss_rate', 0.0):>7.4f}"
            )
        if len(points) > max_points:
            lines.append(f"  ... {len(points) - max_points} more point(s)")

    quarantined = manifest.get("quarantined", [])
    if quarantined:
        lines.append("")
        lines.append("quarantined:")
        for entry in quarantined:
            last = entry["failures"][-1] if entry.get("failures") else {}
            lines.append(
                f"  #{entry.get('index')} seed={entry.get('seed')} "
                f"attempts={entry.get('attempts')} "
                f"last={last.get('kind')}: {last.get('message')}"
            )
    return "\n".join(lines)
