"""Supervisor fault paths: crash retry, timeouts, quarantine, fallback.

The slow tests here inject *real* faults — worker ``os._exit``, hung
sleeps, runaway simulations — through the ``REPRO_SWEEP_FAULT`` hook in
:func:`repro.runner.core.evaluate_point`, because crash semantics only
exist across a genuine process boundary.  They are marked ``fault``
(``pytest -m "not fault"`` skips them).
"""

import math
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from repro.runner.cache import NullCache
from repro.runner.core import SweepRunner
from repro.runner.faultinject import ENV_VAR, FaultSpec, fault_spec_from_env
from repro.runner import resilience as resilience_module
from repro.runner.resilience import (
    RETRY_BACKOFF_BUDGET_S,
    ResilienceConfig,
    SweepSupervisor,
    _Slot,
    exponential_backoff_s,
)
from repro.simnet.engine import WatchdogConfig


def make_runner(preset, *, n_workers=2, resilience=None, watchdog=None):
    return SweepRunner(
        preset,
        n_workers=n_workers,
        cache=NullCache(),
        resilience=resilience or ResilienceConfig(),
        watchdog=watchdog,
    )


@pytest.fixture
def clean_baseline(mini_preset, mini_grid):
    """The uninjected serial ground truth, keyed by point key."""
    outcome = make_runner(mini_preset, n_workers=1).run(
        mini_grid, n_runs=1, base_seed=0, parallel=False
    )
    return {point.key: point for point in outcome.points}


class TestRetryPolicy:
    def test_backoff_schedule(self):
        waits = [exponential_backoff_s(k) for k in (0, 1, 2, 5, 6, 9)]
        assert waits == pytest.approx([0.05, 0.1, 0.2, 1.6, 2.0, 2.0])  # capped at 2 s

    def test_backoff_shape_matches_channel_config(self):
        # Each failed attempt pushes the point's eligibility out by the
        # runner's backoff formula, capped at RETRY_BACKOFF_MAX_S.
        supervisor = SweepSupervisor(None, _double, config=ResilienceConfig(max_attempts=9))
        slot, queue = _Slot(0, None), deque()
        waits = []
        for _ in range(8):
            supervisor._record_failure(slot, "exception", "boom", queue, 0.0, None)
            waits.append(slot.eligible_at)
        assert waits == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert waits == [exponential_backoff_s(k) for k in range(8)]
        assert supervisor.report.retries == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": -1},
            {"max_attempts": math.nan},
            {"max_attempts": 2.5},
        ],
    )
    def test_rejects_invalid_policy(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point_timeout_s": 0.0},
            {"point_timeout_s": -1.0},
            {"point_timeout_s": math.nan},
        ],
    )
    def test_rejects_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)


def _double(spec, point):
    return spec * point


class TestFailureAccounting:
    def test_failures_and_quarantines_are_counted_under_telemetry(self):
        from repro import telemetry

        supervisor = SweepSupervisor(2, _double, config=ResilienceConfig(max_attempts=1))
        with telemetry.use() as tele:
            supervisor._record_failure(_Slot(0, None), "exception", "boom", deque(), 0.0, None)
            counters = tele.registry.snapshot()["counters"]
        assert counters["runner.point_failures{kind=exception}"] == 1
        assert counters["runner.quarantined"] == 1
        assert [q.index for q in supervisor.report.quarantined] == [0]


class _HungPool:
    """A pool whose first submit runs forever and whose other submits
    never start; its one worker is already gone when it is killed."""

    def __init__(self):
        self.submitted = []
        self._processes = {0: SimpleNamespace(kill=self._already_dead)}

    @staticmethod
    def _already_dead():
        raise ProcessLookupError("no such process")

    def submit(self, fn, *args):
        future = Future()
        if not self.submitted:
            future.set_running_or_notify_cancel()
        self.submitted.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestHungPool:
    def test_the_overdue_point_is_charged_and_the_rest_requeued_free(self, monkeypatch):
        clock = iter(range(10**6))  # each read is 0.6 s after the last
        monkeypatch.setattr(
            resilience_module, "time",
            SimpleNamespace(monotonic=lambda: 0.6 * next(clock), sleep=lambda s: None),
        )
        supervisor = SweepSupervisor(
            2, _double, n_workers=2, config=ResilienceConfig(point_timeout_s=1.0)
        )
        pools = [_HungPool(), _DoomedPool()]
        supervisor._new_pool = lambda width: pools.pop(0)
        results = {}
        report = supervisor.execute_pool(list(enumerate(range(3))), results.__setitem__)
        assert results == {0: 0, 1: 2, 2: 4}
        assert {
            index: [failure.kind for failure in failures]
            for index, failures in report.failure_history.items()
        } == {0: ["timeout"]}
        assert report.pool_rebuilds == 1 and not report.quarantined


class TestExecuteChoosesPoolOrSerial:
    """The supervisor, not its callers, decides when a pool can help."""

    @pytest.mark.parametrize(
        "n_workers, parallel, n_points, pooled",
        [
            (2, True, 2, True),
            (2, False, 2, False),  # caller said no
            (1, True, 2, False),  # nobody to share with
            (2, True, 1, False),  # nothing to share out
        ],
    )
    def test_choice(self, n_workers, parallel, n_points, pooled):
        supervisor = SweepSupervisor(2, _double, n_workers=n_workers)
        assert supervisor.mp_context is not None  # owns its pool context
        results = {}
        report = supervisor.execute(
            list(enumerate(range(n_points))), results.__setitem__, parallel=parallel
        )
        assert report.pooled is pooled
        assert results == {index: 2 * index for index in range(n_points)}


class _DoomedPool:
    """A pool whose ``break_at``-th submit finds the pool already broken.

    What was submitted before stays pending until then and fails the way
    a real broken pool fails it; ``break_at=None`` is a healthy pool that
    evaluates at submit time.
    """

    def __init__(self, break_at=None):
        self.break_at = break_at
        self.pending = []

    def submit(self, fn, *args):
        future = Future()
        if self.break_at is None:
            future.set_result(fn(*args))
            return future
        if len(self.pending) + 1 == self.break_at:
            for earlier in self.pending:
                earlier.set_exception(BrokenProcessPool("worker died"))
            raise BrokenProcessPool("worker died")
        self.pending.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestSubmitIntoBrokenPool:
    """ROADMAP 5.i: a worker dying mid-submit-loop is a pool break."""

    def test_raising_submit_requeues_uncharged_and_rebuilds(self):
        supervisor = SweepSupervisor(
            2, _double, n_workers=2,
            config=ResilienceConfig(),
        )
        pools = [_DoomedPool(break_at=3), _DoomedPool()]
        supervisor._new_pool = lambda width: pools.pop(0)
        results = {}
        report = supervisor.execute_pool(
            list(enumerate(range(4))), results.__setitem__
        )
        assert results == {index: 2 * index for index in range(4)}
        assert report.pool_rebuilds == 1 and not report.serial_fallback
        # The two in flight take the blame (nobody was seen running, so
        # the pool-width oldest); the slot whose submit raised, and the
        # one never reached, cost nothing.
        assert {
            index: [failure.kind for failure in failures]
            for index, failures in report.failure_history.items()
        } == {0: ["crash"], 1: ["crash"]}
        assert report.retries == 2
        assert not report.quarantined


class TestFaultSpec:
    def test_env_round_trip(self, monkeypatch):
        spec = FaultSpec(mode="raise", beta=0.7, run_index=0, once_dir="/tmp/x")
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        assert fault_spec_from_env() == spec

    def test_matches_only_points_equal_on_every_filter(self, mini_grid):
        from repro.runner.core import SweepPoint

        point = SweepPoint(mini_grid[0], run_index=1, seed=7)
        beta = point.params.beta
        assert FaultSpec("raise", beta=beta, run_index=1, seed=7).matches(point)
        assert not FaultSpec("raise", beta=beta, run_index=0).matches(point)
        assert not FaultSpec("raise", beta=beta, seed=8).matches(point)

    def test_unset_env_is_no_spec(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert fault_spec_from_env() is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(mode="explode")


@pytest.mark.fault
class TestCrashRecovery:
    def test_crash_once_retries_to_completion(
        self, mini_preset, mini_grid, clean_baseline, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR,
            FaultSpec(mode="crash", beta=0.2, once_dir=str(tmp_path)).to_env(),
        )
        outcome = make_runner(mini_preset).run(mini_grid, n_runs=1, base_seed=0)
        assert outcome.complete
        assert len(outcome.points) == len(mini_grid)
        assert outcome.retries >= 1
        assert outcome.pool_rebuilds >= 1
        # Surviving a crash must not perturb results: every point is
        # bit-identical to the clean serial baseline.
        for point in outcome.points:
            assert point.identical_to(clean_baseline[point.key])

    def test_crash_always_quarantines_the_guilty(
        self, mini_preset, mini_grid, clean_baseline, monkeypatch
    ):
        # Points with beta=0.7 crash their worker on every attempt.  An
        # instant crash is never *observed* running, so blame falls on
        # the oldest submissions (which always include the crasher):
        # bystanders may pick up attempts, but the guilty points must
        # end up quarantined as crashes, the sweep must terminate, and
        # every surviving point must be untouched.  One attempt each and
        # the healthy points first: the guilty ones are blamed out before
        # POOL_BREAKS_BEFORE_FALLBACK breaks in a row move the sweep to
        # the serial path, where the crash fault does not fire.
        monkeypatch.setenv(
            ENV_VAR, FaultSpec(mode="crash", beta=0.7).to_env()
        )
        mini_grid.sort(key=lambda params: params.beta)
        resilience = ResilienceConfig(max_attempts=1)
        outcome = make_runner(mini_preset, resilience=resilience).run(
            mini_grid, n_runs=1, base_seed=0
        )
        assert not outcome.serial_fallback
        guilty = sum(1 for p in mini_grid if p.beta == 0.7)
        assert guilty  # the grid really contains the targeted points
        assert not outcome.complete
        quarantined_betas = [q.point.params.beta for q in outcome.quarantined]
        assert quarantined_betas.count(0.7) == guilty
        for q in outcome.quarantined:
            if q.point.params.beta == 0.7:
                assert q.last_failure.kind == "crash"
        for point in outcome.points:
            assert point.params.beta != 0.7
            assert point.identical_to(clean_baseline[point.key])

    def test_unrecoverable_pool_degrades_to_serial(
        self, mini_preset, mini_grid, clean_baseline, monkeypatch
    ):
        # Crash *every* worker evaluation.  The crash fault is gated to
        # child processes, so the in-process fallback completes the sweep.
        monkeypatch.setenv(ENV_VAR, FaultSpec(mode="crash").to_env())
        resilience = ResilienceConfig(max_attempts=5)
        outcome = make_runner(mini_preset, resilience=resilience).run(
            mini_grid, n_runs=1, base_seed=0
        )
        assert outcome.serial_fallback
        assert outcome.complete
        assert len(outcome.points) == len(mini_grid)
        for point in outcome.points:
            assert point.identical_to(clean_baseline[point.key])


@pytest.mark.fault
class TestExceptionsAndTimeouts:
    def test_persistent_exception_quarantines_with_history(
        self, mini_preset, mini_grid, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR, FaultSpec(mode="raise", beta=0.7).to_env()
        )
        resilience = ResilienceConfig(max_attempts=2)
        outcome = make_runner(mini_preset, resilience=resilience).run(
            mini_grid, n_runs=1, base_seed=0
        )
        expected_bad = sum(1 for p in mini_grid if p.beta == 0.7)
        assert len(outcome.quarantined) == expected_bad
        for q in outcome.quarantined:
            assert q.attempts == 2
            assert [f.kind for f in q.failures] == ["exception", "exception"]
            assert "injected fault" in q.last_failure.message
            assert "quarantined after 2 attempt(s)" in q.describe()

    def test_raise_once_is_retried_in_serial_path(
        self, mini_preset, mini_grid, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR,
            FaultSpec(mode="raise", beta=0.2, once_dir=str(tmp_path)).to_env(),
        )
        outcome = make_runner(mini_preset, n_workers=1).run(
            mini_grid, n_runs=1, base_seed=0, parallel=False
        )
        assert outcome.complete
        assert outcome.retries >= 1

    def test_hung_point_times_out_and_recovers(
        self, mini_preset, mini_grid, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR,
            FaultSpec(
                mode="hang", beta=0.2, run_index=0,
                once_dir=str(tmp_path), hang_s=60.0,
            ).to_env(),
        )
        resilience = ResilienceConfig(point_timeout_s=1.0)
        outcome = make_runner(mini_preset, resilience=resilience).run(
            mini_grid, n_runs=1, base_seed=0
        )
        assert outcome.complete
        assert len(outcome.points) == len(mini_grid)
        assert outcome.retries >= 1

    def test_backoff_budget_quarantines_before_max_attempts(
        self, mini_preset, mini_grid, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, FaultSpec(mode="raise").to_env())
        # The serial path really sleeps each backoff; skip the waits.
        monkeypatch.setattr(
            resilience_module, "time",
            SimpleNamespace(monotonic=time.monotonic, sleep=lambda s: None),
        )
        within_budget, spent = 0, 0.0
        while spent + exponential_backoff_s(within_budget) <= RETRY_BACKOFF_BUDGET_S:
            spent += exponential_backoff_s(within_budget)
            within_budget += 1
        max_attempts = 2 * within_budget
        outcome = make_runner(
            mini_preset, n_workers=1, resilience=ResilienceConfig(max_attempts=max_attempts)
        ).run(mini_grid, n_runs=1, base_seed=0, parallel=False)
        assert len(outcome.quarantined) == len(mini_grid)
        # The budget, not max_attempts, ends each point's retries.
        assert all(q.attempts == within_budget + 1 for q in outcome.quarantined)
        assert outcome.retries == within_budget * len(mini_grid)


@pytest.mark.fault
class TestWatchdogQuarantine:
    def test_runaway_simulations_quarantine_as_stalled(
        self, mini_preset, mini_grid
    ):
        # No fault injection: a too-small event budget makes every real
        # simulation trip the watchdog inside the worker.
        resilience = ResilienceConfig(max_attempts=2)
        outcome = make_runner(
            mini_preset,
            resilience=resilience,
            watchdog=WatchdogConfig(max_events=50),
        ).run(mini_grid, n_runs=1, base_seed=0)
        assert len(outcome.quarantined) == len(mini_grid)
        assert all(
            q.last_failure.kind == "stalled" for q in outcome.quarantined
        )
        assert not outcome.points

    def test_generous_watchdog_does_not_perturb_results(
        self, mini_preset, mini_grid, clean_baseline
    ):
        # The watchdog can abort a run but never alter one that finishes
        # (and is excluded from cache keys for exactly that reason).
        outcome = make_runner(
            mini_preset,
            n_workers=1,
            watchdog=WatchdogConfig(max_events=100_000_000, max_wall_s=3600.0),
        ).run(mini_grid, n_runs=1, base_seed=0, parallel=False)
        assert outcome.complete
        for point in outcome.points:
            assert point.identical_to(clean_baseline[point.key])
