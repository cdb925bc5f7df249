"""The flight recorder is armed only for a point that has failed.

A point runs bare.  When it raises and the spec has a ``flightrec_dir``,
it runs once more inside :func:`repro.flightrec.capture`, and the first
failure is re-raised.  A point is a pure function of ``(spec, point)``,
so the replay leaves the dump an armed first attempt would have left.
"""

import os
from collections import Counter
from dataclasses import replace

import pytest

from repro import flightrec
from repro.flightrec.recorder import load_dump
from repro.runner import core
from repro.runner.cache import NullCache
from repro.runner.core import SweepPoint, SweepRunner, SweepSpec, evaluate_point
from repro.runner.faultinject import ENV_VAR, FaultSpec, InjectedFault
from repro.runner.resilience import ResilienceConfig
from repro.simnet.engine import SimulationStalled, WatchdogConfig

from .conftest import MINI_GRID, MINI_PRESET

POINT = SweepPoint(params=MINI_GRID[0], run_index=0, seed=0)


@pytest.fixture
def captures(monkeypatch):
    """Every path ``flightrec.capture`` is entered with, in order."""
    paths = []
    real = flightrec.capture

    def counting(path):
        paths.append(path)
        return real(path)

    monkeypatch.setattr(flightrec, "capture", counting)
    return paths


def stalling_spec(directory=None):
    """Every point trips the event watchdog late in the run."""
    full = evaluate_point(SweepSpec(preset=MINI_PRESET), POINT)
    return SweepSpec(
        preset=MINI_PRESET,
        watchdog=WatchdogConfig(max_events=int(full.events_processed * 0.9)),
        flightrec_dir=directory,
    )


def dump_path(spec, directory):
    return os.path.join(str(directory), f"flightrec-{POINT.key(spec)}.jsonl")


class TestReplay:
    def test_replayed_dump_equals_an_armed_first_attempt(self, tmp_path, captures):
        spec = stalling_spec(str(tmp_path / "replayed"))
        with pytest.raises(SimulationStalled):
            evaluate_point(spec, POINT)
        replayed = dump_path(spec, tmp_path / "replayed")
        assert captures == [replayed]

        # Armed from the start, as every checkpointed point once was.
        armed, bare = str(tmp_path / "armed.jsonl"), replace(spec, flightrec_dir=None)
        with pytest.raises(SimulationStalled):
            with flightrec.capture(armed):
                evaluate_point(bare, POINT)

        header, records = load_dump(replayed)
        assert header["reason"] == "watchdog:max_events"
        assert records
        # A dump holds no wall-clock field: the whole file must match.
        assert (header, records) == load_dump(armed)
        with open(replayed) as ours, open(armed) as theirs:
            assert ours.read() == theirs.read()

    def test_no_flightrec_dir_means_no_replay(self, captures):
        with pytest.raises(SimulationStalled):
            evaluate_point(stalling_spec(), POINT)
        assert captures == []

    def test_first_failure_is_reraised_when_the_replay_fails_otherwise(
        self, tmp_path, monkeypatch, captures
    ):
        failures = iter([ValueError("first"), RuntimeError("replay")])

        def run_point(spec, point, key):
            raise next(failures)

        monkeypatch.setattr(core, "_run_point", run_point)
        spec = SweepSpec(preset=MINI_PRESET, flightrec_dir=str(tmp_path))
        with pytest.raises(ValueError, match="first"):
            evaluate_point(spec, POINT)
        assert len(captures) == 1
        header, _ = load_dump(dump_path(spec, tmp_path))
        assert header["reason"] == "RuntimeError: replay"

    def test_a_replay_that_succeeds_leaves_no_dump(
        self, tmp_path, monkeypatch, captures
    ):
        real = core._run_point
        calls = []

        def flaky(spec, point, key):
            calls.append(key)
            if len(calls) == 1:
                raise OSError("transient")
            return real(spec, point, key)

        monkeypatch.setattr(core, "_run_point", flaky)
        spec = SweepSpec(preset=MINI_PRESET, flightrec_dir=str(tmp_path))
        with pytest.raises(OSError, match="transient"):
            evaluate_point(spec, POINT)
        assert len(calls) == 2 and len(captures) == 1
        assert not list(tmp_path.glob("flightrec-*.jsonl"))

    def test_injected_fault_is_not_replayed(self, tmp_path, monkeypatch, captures):
        # The test-only injection fires before the first run, so it
        # neither reaches the replay nor fires in it.
        monkeypatch.setenv(ENV_VAR, FaultSpec(mode="raise").to_env())
        spec = SweepSpec(preset=MINI_PRESET, flightrec_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            evaluate_point(spec, POINT)
        assert captures == []


class TestCheckpointedSweep:
    def runner(self, tmp_path, **kwargs):
        return SweepRunner(
            MINI_PRESET,
            n_workers=1,
            cache=NullCache(),
            checkpoint_dir=str(tmp_path),
            resilience=ResilienceConfig(max_attempts=2),
            **kwargs,
        )

    def test_healthy_sweep_never_captures(self, tmp_path, captures):
        outcome = self.runner(tmp_path).run(
            MINI_GRID[:2], n_runs=1, base_seed=0, parallel=False
        )
        assert outcome.complete and len(outcome.points) == 2
        assert captures == []
        assert not list(tmp_path.glob("flightrec-*.jsonl"))

    def test_one_capture_per_failing_attempt(self, tmp_path, captures):
        runner = self.runner(tmp_path, watchdog=WatchdogConfig(max_events=50))
        outcome = runner.run(MINI_GRID[:2], n_runs=1, base_seed=0, parallel=False)
        assert len(outcome.quarantined) == 2
        keys = [
            SweepPoint(params, 0, 0).key(runner.spec) for params in MINI_GRID[:2]
        ]
        expected = [str(tmp_path / f"flightrec-{key}.jsonl") for key in keys]
        assert Counter(captures) == Counter({path: 2 for path in expected})
        for path in expected:
            header, _ = load_dump(path)
            assert header["reason"] == "watchdog:max_events"
