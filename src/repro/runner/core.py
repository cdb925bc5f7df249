"""The multiprocess experiment-sweep engine.

``SweepRunner`` fans a grid of :class:`CubicParams` points (each run
``n_runs`` times) out over a worker pool, with per-point result caching
keyed by content hash and a deterministic merge: results come back in
grid × run order no matter which worker finished first, and every
point's randomness derives solely from its own seed (each simulation
builds its own :class:`~repro.simnet.random.RngStreams` from
``base_seed + run_index``), so the parallel sweep is bit-identical to
the serial one.

Workers are plain processes running :func:`evaluate_point`; everything
that crosses the process boundary (tasks in, :class:`PointResult` out)
is a picklable frozen dataclass.

Every sweep, this one and the fault sweeps of
:mod:`repro.experiments.faultsweep`, gets its results from
:func:`run_supervised`, is compared point by point by
:func:`result_mismatches` and is re-checked serially by
:func:`serial_recheck`.  Execution is supervised (see
:mod:`repro.runner.resilience`): worker crashes and hung points are
retried with budgeted backoff, repeatedly failing points are quarantined
instead of aborting the sweep, and an unrecoverable pool degrades to
in-process serial execution.  Completed Table-2 points can be journaled
to a crash-safe checkpoint
(:mod:`repro.runner.checkpoint`) so an interrupted sweep resumes where
it died.
"""

from __future__ import annotations

import os
import platform
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import flightrec as _flightrec
from .. import telemetry as _telemetry
from ..phi.optimizer import SweepResult
from ..simnet.engine import WatchdogConfig
from ..telemetry.registry import LATENCY_BUCKETS_S, merge_snapshots
from ..transport.cubic import CubicParams
from .cache import MemoryCache
from .checkpoint import SweepJournal
from .faultinject import ENV_VAR as _FAULT_ENV_VAR
from .hashing import point_key
from .progress import ProgressReporter, SweepProgress
from .records import PointResult, flow_records
from .resilience import (
    ExecutionReport,
    PointFailure,
    QuarantinedPoint,
    ResilienceConfig,
    SweepSupervisor,
)

if TYPE_CHECKING:  # pragma: no cover - cycle guard: experiments imports us
    from ..experiments.scenarios import ScenarioPreset


@dataclass(frozen=True)
class SweepSpec:
    """What stays fixed across the whole sweep: scenario and duration.

    ``watchdog`` optionally bounds every point's simulation (max events
    / max wall seconds); it can abort a runaway run but never alters the
    trajectory of one that finishes, so it is deliberately *excluded*
    from cache keys.  ``collect_telemetry`` likewise: workers then run
    each point under a private telemetry session and ship the metrics
    snapshot back on the result, which observes the simulation without
    perturbing it.

    ``flightrec_dir`` replays a failing point armed: a point runs with
    no recorder, and one that raises (watchdog trip, invariant
    violation, crash) runs once more in the same worker under the flight
    recorder, which dumps to ``<flightrec_dir>/flightrec-<point_key>.jsonl``
    before the first exception propagates — the dump exists even when
    the supervisor later quarantines the point and the worker's memory
    is gone.  All three are observability knobs, excluded from cache
    keys.

    ``fault`` injects a data-plane fault into every point:
    ``("outage", start_s, duration_s)`` takes the bottleneck link down
    for that window.  Unlike the knobs above it *changes trajectories*,
    so it is part of the cache key whenever set (and absent from the
    hash when ``None``, preserving historical keys).
    """

    preset: "ScenarioPreset"
    duration_s: Optional[float] = None
    watchdog: Optional[WatchdogConfig] = None
    collect_telemetry: bool = False
    flightrec_dir: Optional[str] = None
    fault: Optional[Tuple[str, float, float]] = None

    @property
    def effective_duration_s(self) -> float:
        return (
            self.duration_s if self.duration_s is not None else self.preset.duration_s
        )


@dataclass(frozen=True)
class SweepPoint:
    """One unit of work: a grid point evaluated under one seed."""

    params: CubicParams
    run_index: int
    seed: int

    def key(self, spec: SweepSpec) -> str:
        return point_key(
            self.params,
            spec.preset.config,
            spec.preset.workload,
            spec.effective_duration_s,
            self.seed,
            fault=list(spec.fault) if spec.fault is not None else None,
        )


def _fault_hook(fault: Optional[Tuple[str, float, float]]):
    """Materialize a :class:`SweepSpec` fault spec as a scenario hook."""
    if fault is None:
        return None
    kind, start_s, duration_s = fault
    if kind != "outage":
        raise ValueError(f"unknown sweep fault kind: {kind!r}")

    def hook(env):
        from ..simnet.faults import Outage

        return [
            Outage(
                env.sim, float(start_s), float(duration_s),
                links=[env.topology.bottleneck],
            )
        ]

    return hook


def evaluate_point(spec: SweepSpec, point: SweepPoint) -> PointResult:
    """Run one grid point under one seed; the worker-side entry point.

    Must stay a module-level function so worker processes can unpickle
    it.  All randomness comes from the simulation's own seeded streams,
    so the result is a pure function of ``(spec, point)``, and a failing
    point replayed under the flight recorder leaves the dump an armed
    first run would have left.
    """
    if _FAULT_ENV_VAR in os.environ:  # test-only fault injection hook
        from .faultinject import maybe_inject_fault

        maybe_inject_fault(point)

    key = point.key(spec)
    try:
        return _run_point(spec, point, key)
    except Exception:
        if spec.flightrec_dir is not None:
            # The replay dumps as it unwinds (watchdog trip, invariant
            # violation, crash); the first failure is the one reported.
            path = os.path.join(spec.flightrec_dir, f"flightrec-{key}.jsonl")
            with suppress(Exception), _flightrec.capture(path):
                _run_point(spec, point, key)
        raise


def _run_point(spec: SweepSpec, point: SweepPoint, key: str) -> PointResult:
    # Imported here, not at module top: repro.experiments imports this
    # module (experiments.sweep drives the runner), so the scenario
    # machinery has to bind lazily to keep the import graph acyclic.
    from ..experiments.scenarios import run_cubic_fixed

    started = time.perf_counter()
    snapshot: Optional[Dict[str, Any]] = None
    # A private telemetry session per point: worker processes don't
    # share memory with the parent, so metrics travel by value on the
    # result and are merged deterministically at the by-index merge.
    # (The ambient flight recorder is inherited.)
    with _telemetry.use() if spec.collect_telemetry else nullcontext() as tele:
        result = run_cubic_fixed(
            point.params,
            spec.preset,
            seed=point.seed,
            duration_s=spec.duration_s,
            watchdog=spec.watchdog,
            fault_hook=_fault_hook(spec.fault),
        )
        if tele is not None:
            snapshot = tele.registry.snapshot()
    wall = time.perf_counter() - started
    return PointResult(
        key=key,
        params=point.params,
        seed=point.seed,
        run_index=point.run_index,
        metrics=result.metrics,
        flows=flow_records(result.per_sender_stats),
        bottleneck_drop_rate=result.bottleneck_drop_rate,
        mean_utilization=result.mean_utilization,
        duration_s=spec.effective_duration_s,
        events_processed=result.events_processed,
        wall_seconds=wall,
        telemetry=snapshot,
    )


@dataclass
class Supervised:
    """One supervised pass: the surviving results in index order, the
    supervisor's report, each survivor's failed attempts by result key,
    and the merged worker telemetry (None unless the spec collects it)."""

    results: List[Any]
    report: ExecutionReport
    failure_history: Dict[str, Tuple[PointFailure, ...]]
    telemetry: Optional[Dict[str, Any]]


def run_supervised(
    spec,
    evaluate: Callable[[Any, Any], Any],
    pending: Sequence[Tuple[int, Any]],
    *,
    n_workers: int,
    parallel: bool,
    resilience: Optional[ResilienceConfig] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    on_event: Optional[Callable[[ExecutionReport], None]] = None,
) -> Supervised:
    """The one path from the :class:`SweepSupervisor` to a sweep's results.

    Table-2 and fault sweeps both hand it ``(index, point)`` pairs.
    Results are collected by index and worker snapshots merged in index
    order, never completion order, so serial and parallel passes are
    bit-identical.  ``on_result(index, result)`` sees each success as it
    lands; ``on_event(report)`` follows every success and failure.
    """
    supervisor = SweepSupervisor(spec, evaluate, config=resilience, n_workers=n_workers)
    report = supervisor.report
    by_index: Dict[int, Any] = {}

    def event() -> None:
        if on_event is not None:
            on_event(report)

    def deliver(index: int, result) -> None:
        by_index[index] = result
        if on_result is not None:
            on_result(index, result)
        event()

    supervisor.execute(pending, deliver, event, parallel=parallel)
    results = [by_index[index] for index in sorted(by_index)]
    return Supervised(
        results=results,
        report=report,
        failure_history={
            by_index[index].key: tuple(failures)
            for index, failures in sorted(report.failure_history.items())
            if index in by_index
        },
        telemetry=merge_snapshots(
            result.telemetry for result in results if result.telemetry is not None
        ) if spec.collect_telemetry else None,
    )


def result_mismatches(first: Iterable[Any], second: Iterable[Any]) -> List[str]:
    """Each point two result sets disagree on, matched by ``key``: one set
    lacks it, or its results are not ``identical_to`` each other."""
    theirs = {result.key: result for result in second}
    mismatches: List[str] = []
    for result in first:
        other = theirs.pop(result.key, None)
        if other is None:
            mismatches.append(f"point {result.key[:12]} missing from the second set")
        elif not result.identical_to(other):
            mismatches.append(f"point {result.key[:12]} differs")
    mismatches.extend(f"point {key[:12]} missing from the first set" for key in theirs)
    return mismatches


def serial_recheck(spec, evaluate, points, results) -> Tuple[List[str], float]:
    """The determinism check behind every ``--serial-check``: re-run
    ``points`` (a first pass's survivors) in this process with no
    telemetry, cache or journal; return the :func:`result_mismatches`
    against ``results`` and the re-run's wall seconds."""
    started = time.perf_counter()
    rerun = run_supervised(
        replace(spec, collect_telemetry=False),
        evaluate,
        list(enumerate(points)),
        n_workers=1,
        parallel=False,
    )
    return result_mismatches(results, rerun.results), time.perf_counter() - started


@dataclass
class SweepOutcome:
    """A completed sweep: per-point results in deterministic order.

    ``points`` holds the surviving results; quarantined points (if any)
    are reported in ``quarantined`` with their failure histories and are
    absent from ``points``.
    """

    spec: SweepSpec
    points: List[PointResult]
    n_runs: int
    base_seed: int
    wall_seconds: float
    workers: int
    cache_hits: int
    checkpoint_reused: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    quarantined: List[QuarantinedPoint] = field(default_factory=list)
    #: Where each surviving point's result came from, keyed by point key:
    #: "computed" | "cached" | "resumed".
    provenance: Dict[str, str] = field(default_factory=dict)
    #: Failed attempts of the surviving points, keyed by point key
    #: (quarantined points carry their own).
    failure_history: Dict[str, Tuple[PointFailure, ...]] = field(default_factory=dict)
    #: Deterministic merge of the per-worker metric snapshots (None when
    #: the sweep ran without telemetry collection).
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def total_events(self) -> int:
        return sum(point.events_processed for point in self.points)

    @property
    def events_per_second(self) -> float:
        """Simulation throughput of *this* run: cached and resumed points
        cost no simulation here, so their events are not counted."""
        if self.wall_seconds <= 0:
            return 0.0
        computed = sum(
            point.events_processed
            for point in self.points
            if self.provenance.get(point.key) == "computed"
        )
        return computed / self.wall_seconds

    @property
    def complete(self) -> bool:
        """Whether every scheduled point produced a result."""
        return not self.quarantined

    def to_sweep_results(self) -> List[SweepResult]:
        """Reshape into the optimizer's per-grid-point runs structure.

        Output order matches the grid order the sweep was launched with,
        and each point's runs are in run-index order, so
        :func:`repro.phi.optimizer.select_optimal` and
        :func:`~repro.phi.optimizer.leave_one_out` apply unchanged.
        Quarantined points simply contribute fewer runs.
        """
        grouped: Dict[CubicParams, SweepResult] = {}
        ordered: List[SweepResult] = []
        for point in self.points:
            result = grouped.get(point.params)
            if result is None:
                result = SweepResult(params=point.params)
                grouped[point.params] = result
                ordered.append(result)
            result.runs.append(point.metrics)
        return ordered

    def serial_check(self) -> Tuple[List[str], float]:
        """:func:`serial_recheck` over every surviving point; cached and
        resumed ones are recomputed, not re-read."""
        points = [SweepPoint(p.params, p.run_index, p.seed) for p in self.points]
        return serial_recheck(self.spec, evaluate_point, points, self.points)


def _default_workers() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def machine_fingerprint() -> Dict[str, Any]:
    """The hardware/runtime facts a timing is meaningless without."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": _default_workers(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class SweepRunner:
    """Sweep a parameter grid through the simulator, in parallel.

    Parameters
    ----------
    preset:
        The scenario every point runs under (topology + workload).
    duration_s:
        Override of the preset's simulated duration (None keeps it).
    n_workers:
        Worker processes; defaults to the usable CPU count.  ``1``
        evaluates inline without a pool.
    cache:
        A cache backend (``MemoryCache`` by default; pass a
        :class:`~repro.runner.cache.DiskCache` to persist across runs, or
        ``NullCache`` to disable).
    progress:
        Optional callable receiving :class:`SweepProgress` snapshots.
    resilience:
        Supervisor knobs (:class:`~repro.runner.resilience.ResilienceConfig`);
        the default retries crashes/hangs and quarantines repeat
        offenders instead of aborting.
    watchdog:
        Optional per-simulation :class:`~repro.simnet.engine.WatchdogConfig`
        (max events / max wall seconds) installed in every worker run.
    checkpoint_dir:
        Journal completed points under this directory (crash-safe JSONL
        keyed by the sweep's content hash).  ``None`` disables
        checkpointing.
    resume:
        Replay an existing journal before scheduling work, so only
        unfinished points are recomputed.  Without ``resume`` an
        existing journal for the same sweep is truncated.
    flightrec_dir:
        Replay a failing point armed, in its worker, dumping to
        ``flightrec-<point_key>.jsonl`` under this directory.  Defaults
        to ``checkpoint_dir`` (dumps land next to the sweep journal);
        pass ``""`` to disable recording for a checkpointed sweep.
    fault:
        Inject a data-plane fault into every point, e.g.
        ``("outage", 5.0, 2.0)`` (bottleneck down for 2 s starting at
        sim t=5 s).  Part of the cache key — faulted and fault-free
        evaluations never collide.
    """

    def __init__(
        self,
        preset: ScenarioPreset,
        *,
        duration_s: Optional[float] = None,
        n_workers: Optional[int] = None,
        cache=None,
        progress: Optional[ProgressReporter] = None,
        resilience: Optional[ResilienceConfig] = None,
        watchdog: Optional[WatchdogConfig] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        flightrec_dir: Optional[str] = None,
        fault: Optional[Tuple[str, float, float]] = None,
    ) -> None:
        if flightrec_dir is None:
            flightrec_dir = checkpoint_dir
        self.spec = SweepSpec(
            preset=preset,
            duration_s=duration_s,
            watchdog=watchdog,
            flightrec_dir=flightrec_dir or None,
            fault=fault,
        )
        self.n_workers = n_workers if n_workers is not None else _default_workers()
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        self.cache = cache if cache is not None else MemoryCache()
        self.progress = progress
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def tasks(
        self,
        grid: Sequence[CubicParams],
        n_runs: int,
        base_seed: int,
    ) -> List[SweepPoint]:
        """The work list in deterministic (grid × run) order.

        Run ``i`` of every grid point shares seed ``base_seed + i`` so
        leave-one-out comparisons see identical workloads across
        parameter settings.  A grid that repeats a parameter set raises
        ``ValueError``: its runs would share keys.
        """
        if n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {n_runs}")
        # Runs of one grid point get distinct seeds, so only a repeated
        # grid point can repeat a key.
        if len(set(grid)) != len(grid):
            raise ValueError("sweep points must be unique; the grid repeats a point")
        return [
            SweepPoint(params=params, run_index=run, seed=base_seed + run)
            for params in grid
            for run in range(n_runs)
        ]

    def run(
        self,
        grid: Iterable[CubicParams],
        n_runs: int = 1,
        base_seed: int = 0,
        parallel: bool = True,
    ) -> SweepOutcome:
        """Evaluate the whole grid; returns results in launch order."""
        tele = _telemetry.session()
        # Workers collect per-point snapshots while telemetry is live in
        # this process, decided per call.  Excluded from cache keys, so
        # this cannot invalidate previously-cached results.
        spec = replace(self.spec, collect_telemetry=tele.enabled)
        grid = list(grid)
        tasks = self.tasks(grid, n_runs, base_seed)
        started = time.perf_counter()

        journal: Optional[SweepJournal] = None
        restored: Dict[str, PointResult] = {}
        if self.checkpoint_dir is not None:
            journal = SweepJournal.for_sweep(
                self.checkpoint_dir, spec, grid, n_runs, base_seed
            )
            if self.resume:
                restored = journal.load()
                journal.open()
            else:
                journal.reset()

        results: Dict[int, PointResult] = {}
        pending: List[Tuple[int, SweepPoint]] = []
        provenance: Dict[str, str] = {}
        cache_hits = 0
        checkpoint_hits = 0
        for index, task in enumerate(tasks):
            key = task.key(spec)
            checkpointed = restored.get(key)
            if checkpointed is not None:
                results[index] = checkpointed
                checkpoint_hits += 1
                provenance[key] = "resumed"
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[index] = cached
                cache_hits += 1
                provenance[key] = "cached"
                if journal is not None:
                    # Journal cache hits too: a resume must not depend on
                    # the cache still existing (or still being trusted).
                    journal.append(cached)
            else:
                pending.append((index, task))

        progress_state = SweepProgress(
            total=len(tasks),
            completed=cache_hits + checkpoint_hits,
            cached=cache_hits,
            checkpointed=checkpoint_hits,
            started_at=started,
        )
        self._report(progress_state)

        def keep(index: int, result: PointResult) -> None:
            # Cache entries never carry telemetry snapshots: DiskCache
            # drops them on serialization (to_dict excludes the field),
            # so strip them for MemoryCache too — cached points behave
            # identically whichever backend served them.
            if result.telemetry is None:
                self.cache.put(result)
            else:
                self.cache.put(replace(result, telemetry=None))
            if journal is not None:
                journal.append(result)
            results[index] = result
            provenance[result.key] = "computed"
            progress_state.completed += 1
            progress_state.recomputed += 1

        def sync_supervision(report: ExecutionReport) -> None:
            progress_state.retries = report.retries
            newly_quarantined = report.quarantined_count - progress_state.quarantined
            if newly_quarantined:
                progress_state.quarantined = report.quarantined_count
                progress_state.completed += newly_quarantined
            self._report(progress_state)

        try:
            supervised = run_supervised(
                spec,
                evaluate_point,
                pending,
                n_workers=self.n_workers,
                parallel=parallel,
                resilience=self.resilience,
                on_result=keep,
                on_event=sync_supervision,
            )
        finally:
            if journal is not None:
                journal.close()

        wall = time.perf_counter() - started
        report = supervised.report
        merged = [results[index] for index in sorted(results)]
        if len(merged) + report.quarantined_count != len(tasks):
            # pragma: no cover - defensive
            raise RuntimeError("sweep lost results during merge")

        if tele.enabled:
            registry = tele.registry
            registry.counter("runner.cache_hits").inc(cache_hits)
            registry.counter("runner.cache_misses").inc(len(pending))
            registry.counter("runner.checkpoint_reused").inc(checkpoint_hits)
            registry.counter("runner.retries").inc(report.retries)
            registry.counter("runner.pool_rebuilds").inc(report.pool_rebuilds)
            wall_histogram = registry.histogram(
                "runner.point_wall_s", LATENCY_BUCKETS_S
            )
            for result in merged:
                wall_histogram.observe(result.wall_seconds)

        return SweepOutcome(
            spec=spec,
            points=merged,
            n_runs=n_runs,
            base_seed=base_seed,
            wall_seconds=wall,
            workers=self.n_workers if report.pooled else 1,
            cache_hits=cache_hits,
            checkpoint_reused=checkpoint_hits,
            retries=report.retries,
            pool_rebuilds=report.pool_rebuilds,
            serial_fallback=report.serial_fallback,
            quarantined=list(report.quarantined),
            provenance=provenance,
            failure_history=supervised.failure_history,
            telemetry=supervised.telemetry,
        )

    def _report(self, progress_state: SweepProgress) -> None:
        if self.progress is not None:
            self.progress(progress_state)


__all__ = [
    "ExecutionReport",
    "Supervised",
    "SweepOutcome",
    "SweepPoint",
    "SweepRunner",
    "SweepSpec",
    "evaluate_point",
    "machine_fingerprint",
    "result_mismatches",
    "run_supervised",
    "serial_recheck",
]
