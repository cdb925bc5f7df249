"""Dump-on-anomaly funnels: watchdog trips, invariant violations, sweeps.

The acceptance path for the flight recorder: a sweep point that dies —
here, a watchdog trip provoked by an injected bottleneck outage — must
leave ``flightrec-<point_key>.jsonl`` next to the sweep journal, and the
post-mortem over that dump must attribute the stall to the injected
fault window rather than ``unknown``.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import flightrec, telemetry
from repro.flightrec.postmortem import analyze_dump, fault_windows
from repro.flightrec.recorder import load_dump
from repro.runner.cache import NullCache
from repro.runner.core import SweepPoint, SweepRunner, SweepSpec, evaluate_point
from repro.runner.resilience import ResilienceConfig, RetryPolicy
from repro.simcheck.violations import InvariantViolation, record_violation
from repro.simnet.engine import (
    SimulationStalled,
    Simulator,
    SimWatchdog,
    WatchdogConfig,
)

from tests.runner.conftest import MINI_GRID, MINI_PRESET

OUTAGE = ("outage", 0.5, 0.5)  # bottleneck dark over [0.5, 1.0) sim s


def _calibrated_budget():
    """An event budget that trips the watchdog *after* the fault window.

    Calibrated against the unwatched run so the test stays correct if
    the simulation's event count drifts: 90% of the full run's events
    lands well past the 1.0 s window end in a 2.0 s run.
    """
    spec = SweepSpec(preset=MINI_PRESET, fault=OUTAGE)
    point = SweepPoint(params=MINI_GRID[0], run_index=0, seed=0)
    full = evaluate_point(spec, point)
    return max(1, int(full.events_processed * 0.9))


def _make_runner(tmp_path, *, n_workers, max_events):
    return SweepRunner(
        MINI_PRESET,
        n_workers=n_workers,
        cache=NullCache(),
        checkpoint_dir=str(tmp_path),
        watchdog=WatchdogConfig(max_events=max_events),
        fault=OUTAGE,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, backoff_base_s=0.01),
            poll_interval_s=0.02,
        ),
    )


def _dump_path(runner, tmp_path):
    point = SweepPoint(params=MINI_GRID[0], run_index=0, seed=0)
    return str(tmp_path / f"flightrec-{point.key(runner.spec)}.jsonl")


def _assert_fault_attributed(analysis):
    (window,) = analysis["fault_windows"]
    assert (window["fault"], window["component"]) == ("Outage", "bottleneck")
    assert (window["start"], window["end"]) == (0.5, 1.0)
    attributed = [
        stall
        for entry in analysis["flows"]
        for stall in entry["stalls"]
        if stall["cause"] == "injected-fault"
    ]
    assert attributed, "no stall attributed to the injected fault window"
    for stall in attributed:
        spans = [s for s in stall["evidence"] if s["kind"] == "injected-fault"]
        assert spans and spans[0]["start"] == 0.5 and spans[0]["end"] == 1.0


class TestQuarantinedSweepPoint:
    def test_serial_point_dumps_and_postmortem_blames_the_outage(self, tmp_path):
        runner = _make_runner(
            tmp_path, n_workers=1, max_events=_calibrated_budget()
        )
        outcome = runner.run(
            [MINI_GRID[0]], n_runs=1, base_seed=0, parallel=False
        )
        assert len(outcome.quarantined) == 1
        assert outcome.quarantined[0].last_failure.kind == "stalled"
        dump = _dump_path(runner, tmp_path)
        assert os.path.exists(dump)
        analysis = analyze_dump(dump)
        assert analysis["anomaly"]["reason"] == "watchdog:max_events"
        assert isinstance(analysis["anomaly"]["sim_time"], float)
        _assert_fault_attributed(analysis)

    @pytest.mark.fault
    def test_worker_process_dump_survives_the_worker(self, tmp_path):
        # The dump is a file written inside the worker at the moment of
        # failure, so it outlives the worker process.
        runner = _make_runner(
            tmp_path, n_workers=2, max_events=_calibrated_budget()
        )
        outcome = runner.run([MINI_GRID[0]], n_runs=1, base_seed=0)
        assert len(outcome.quarantined) == 1
        header, records = load_dump(_dump_path(runner, tmp_path))
        assert header["reason"] == "watchdog:max_events"
        assert records

    def test_healthy_sweep_leaves_no_dumps(self, tmp_path):
        runner = SweepRunner(
            MINI_PRESET,
            n_workers=1,
            cache=NullCache(),
            checkpoint_dir=str(tmp_path),
            fault=OUTAGE,
        )
        outcome = runner.run(
            [MINI_GRID[0]], n_runs=1, base_seed=0, parallel=False
        )
        assert outcome.complete
        assert not list(tmp_path.glob("flightrec-*.jsonl"))


class TestInvariantViolationFunnel:
    def test_record_violation_autodumps_before_raising(self, tmp_path):
        path = tmp_path / "invariant.jsonl"
        with flightrec.use(autodump_path=str(path)) as rec:
            rec.simnet("enqueue", 1.4, "bottleneck", flow_id=1, packet_id=9)
            with pytest.raises(InvariantViolation):
                record_violation(
                    InvariantViolation(
                        "wire_conservation",
                        "bottleneck",
                        "packet neither delivered nor dropped",
                        sim_time=1.5,
                    )
                )
        header, records = load_dump(str(path))
        assert header["reason"] == "invariant:wire_conservation"
        assert header["sim_time"] == 1.5
        assert records[0]["kind"] == "enqueue"

    def test_violation_is_held_by_a_recorder_with_no_autodump_path(self):
        with flightrec.use() as rec:
            with pytest.raises(InvariantViolation):
                record_violation(
                    InvariantViolation(
                        "wire_conservation", "bottleneck", "lost", sim_time=1.5
                    )
                )
        assert rec.autodumps == 0
        assert rec.records() == [{
            "layer": "fault", "kind": "invariant_violation", "t": 1.5,
            "component": "wire_conservation", "flow_id": -1, "packet_id": -1,
            "detail": {"subject": "bottleneck"},
        }]
        # Not a fault window: the post-mortem must not charge stalls to it.
        assert fault_windows(rec.records()) == []

    def test_violation_without_recorder_still_raises(self):
        assert not telemetry.session().flightrec.enabled
        with pytest.raises(InvariantViolation):
            record_violation(
                InvariantViolation("wire_conservation", "link", "lost", 0.1)
            )


class TestWatchdogFunnel:
    def test_trip_is_held_by_a_recorder_with_no_autodump_path(self):
        sim = Simulator()
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=3)))

        def tick():
            sim.schedule(0.5, tick)

        sim.schedule(0.5, tick)
        with flightrec.use() as rec:
            with pytest.raises(SimulationStalled):
                sim.run(until=100.0)
        assert rec.autodumps == 0
        (record,) = rec.records()
        assert record == {
            "layer": "fault", "kind": "watchdog_trip", "t": sim.now,
            "component": "max_events", "flow_id": -1, "packet_id": -1,
            "detail": {"events_processed": sim.events_processed},
        }
        assert fault_windows([record]) == []


def _tripped_dump(directory):
    """The dump a watchdog trip leaves for MINI_GRID[0] under OUTAGE."""
    spec = SweepSpec(
        preset=MINI_PRESET,
        fault=OUTAGE,
        watchdog=WatchdogConfig(max_events=400),
        flightrec_dir=directory,
    )
    point = SweepPoint(params=MINI_GRID[0], run_index=0, seed=0)
    try:
        evaluate_point(spec, point)
    except SimulationStalled:
        pass
    return load_dump(os.path.join(directory, f"flightrec-{point.key(spec)}.jsonl"))


class TestDumpIsAFunctionOfThePoint:
    def test_fresh_process_and_after_another_run_dump_alike(self, tmp_path):
        # Packet ids start over with every Simulator: a dump must not
        # depend on what the process simulated before (a pool worker, a
        # retry attempt and a serial re-check all see different pasts).
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            fresh = pool.submit(_tripped_dump, str(tmp_path / "fresh")).result()
        evaluate_point(
            SweepSpec(preset=MINI_PRESET),
            SweepPoint(params=MINI_GRID[1], run_index=0, seed=3),
        )
        again = _tripped_dump(str(tmp_path / "again"))
        header, records = fresh
        assert header["reason"] == "watchdog:max_events"
        assert min(r["packet_id"] for r in records if r["layer"] == "simnet") == 1
        assert again == fresh
