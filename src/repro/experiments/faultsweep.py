"""The fault-sweep harness: one point/row/envelope path for X4, X6, X7.

The paper's practical claim — lookup-at-start / report-at-end sharing
"preserves most of the gain" — is defended by sweeps that break the
control plane on purpose: the server goes absent (X4,
:mod:`~repro.experiments.degraded`), lies (X6,
:mod:`~repro.experiments.poisoned`), or is replicated and partitioned
(X7, :mod:`~repro.experiments.partitioned`).  Each of those modules is a
*declaration* — a :class:`FaultScenario` naming the swept axes and
their default values, the ``run_*_phi_cubic`` function, the accounting
fields carried per point and how each aggregates across seeds, the
baselines that anchor every row, and the floors of the safety envelope.
Everything else lives here once:

- ``(params, seed)`` points evaluated by
  :func:`~repro.runner.core.run_supervised`, the path Table-2 sweeps
  take too (pooled or serial, retried, quarantined, merged by index with
  their telemetry), so serial and parallel sweeps are bit-identical
  (:meth:`FaultPointResult.identical_to`);
- named baselines evaluated once per sweep;
- per-cell aggregation driven by the declared aggregators;
- one ratio and one two-axis floor test (:func:`check_envelope`).

Adding a fault scenario is one file: write its ``run_*`` function,
declare a :class:`FaultScenario` over it and list it in
:data:`repro.experiments.FAULT_SCENARIOS`, which gives it its
``repro fault <name>`` verb with one flag per axis.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple
from typing import Optional, Sequence, Tuple

from .. import telemetry as _telemetry
from ..metrics.summary import RunMetrics, summarize_runs
from ..phi.policy import PolicyTable
from ..runner.core import run_supervised, serial_recheck
from ..runner.hashing import content_hash
from ..runner.resilience import PointFailure, QuarantinedPoint, ResilienceConfig
from ..transport.cubic import CubicParams
from .scenarios import ScenarioPreset, run_cubic_fixed


# ----------------------------------------------------------------------
# Aggregators: how one accounting field combines across a cell's seeds
# (and across a whole sweep, for manifest totals).  ``sum`` is the
# builtin and the mean is ``telemetry.mean``.
# ----------------------------------------------------------------------
def peak(values: Iterable[float]) -> float:
    return max(values, default=0.0)


def merged_counts(values: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for counts in values:
        for key, count in counts.items():
            merged[key] = merged.get(key, 0) + count
    return merged


class Level(NamedTuple):
    """A (power, throughput) pair: a baseline's level, or a ratio to one."""

    power_l: float
    throughput_mbps: float


# ----------------------------------------------------------------------
# The declaration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Baseline:
    """A named anchor every row is compared against.

    ``run(spec, axes, seed)`` produces one run's metrics; the harness
    calls it once per seed — and once per value of each axis in ``per``,
    for baselines that depend on where in the grid the row sits.
    ``tables`` maps a manifest totals key to the metric it tabulates by
    ``<per values>/<seed>``.
    """

    name: str
    run: Callable[["FaultSpec", Mapping[str, Any], int], RunMetrics]
    per: Tuple[str, ...] = ()
    tables: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Floor:
    """One floor of the safety envelope.

    Rows selected by ``applies`` (every row when None) must keep mean
    power *and* mean throughput within the tolerance of the named
    baseline; ``label`` is how a violation names the floor.
    """

    baseline: str
    label: str
    applies: Optional[Callable[["FaultSweepRow"], bool]] = None


@dataclass(frozen=True)
class FaultScenario:
    """Everything that distinguishes one fault sweep from another.

    Must stay picklable (it rides inside :class:`FaultSpec` across the
    process boundary): ``run``, baseline runners and floor predicates
    are module-level functions.
    """

    #: The sweep's verb: ``repro fault <name>``, manifest ``command`` and
    #: flight-recorder dump tag.
    name: str
    #: Axis (a keyword argument of ``run`` the sweep varies, outermost
    #: loop first) -> its default values, the CLI's ``--<axis>`` default.
    grid: Mapping[str, Tuple[Any, ...]]
    #: ``run(policy, preset, *, seed, duration_s, **axes, **fixed)``; its
    #: result has ``metrics``, ``result.events_processed`` and one
    #: attribute per accounting field.
    run: Callable[..., Any]
    #: Result field -> aggregator.  Every field is carried per point,
    #: compared by ``identical_to``, aggregated per row and over the
    #: sweep, and listed in the manifest's ``accounting`` blocks.
    accounting: Mapping[str, Callable[[list], Any]]
    #: ``str.format`` template over the axes, naming a cell in violations.
    cell_format: str
    baselines: Tuple[Baseline, ...] = ()
    floors: Tuple[Floor, ...] = ()

    @property
    def axes(self) -> Tuple[str, ...]:
        """The swept keyword arguments of ``run``, outermost loop first."""
        return tuple(self.grid)

    def aggregate(self, results: Sequence["FaultPointResult"]) -> Dict[str, Any]:
        """Each accounting field aggregated over ``results``."""
        return {
            name: aggregator([result.accounting[name] for result in results])
            for name, aggregator in self.accounting.items()
        }


def stock_cubic(spec: "FaultSpec", axes: Mapping[str, Any], seed: int) -> RunMetrics:
    """The uncoordinated floor: default Cubic on the sweep's own preset."""
    return run_cubic_fixed(
        CubicParams.default(), spec.preset, seed=seed, duration_s=spec.duration_s
    ).metrics


# ----------------------------------------------------------------------
# Points: by-value across the pool boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPoint:
    """One evaluation: the axis values (``params``) under one seed."""

    params: Mapping[str, Any]
    seed: int

    @property
    def key(self) -> str:
        """Content hash of the axis values and seed."""
        return content_hash((*self.params.values(), self.seed))


@dataclass(frozen=True)
class FaultSpec:
    """Everything a worker needs to evaluate a :class:`FaultPoint`.

    Must stay picklable (crosses the process boundary).  ``fixed`` holds
    the ``run`` keyword arguments that stay constant over the sweep.
    """

    scenario: FaultScenario
    preset: ScenarioPreset
    policy: PolicyTable
    fixed: Mapping[str, Any] = field(default_factory=dict)
    duration_s: Optional[float] = None
    collect_telemetry: bool = False


@dataclass
class FaultPointResult:
    """One point's outcome, by-value across the pool boundary.

    ``key`` is the content hash of the point's axis values and seed,
    unique within a sweep: results are matched by it, never by position.
    """

    key: str
    params: Mapping[str, Any]
    seed: int
    metrics: RunMetrics
    accounting: Dict[str, Any]
    events_processed: int
    wall_seconds: float
    #: Observability sidecar (see PointResult.telemetry): excluded from
    #: determinism comparisons.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def identical_to(self, other: "FaultPointResult") -> bool:
        """Bit-identical simulation outcome (wall time excluded)."""
        return (
            self.key == other.key
            and self.params == other.params
            and self.seed == other.seed
            and self.metrics == other.metrics
            and self.accounting == other.accounting
            and self.events_processed == other.events_processed
        )


def evaluate_fault_point(spec: FaultSpec, point: FaultPoint) -> FaultPointResult:
    """Worker entry point; a pure function of ``(spec, point)``.

    Module-level so pool workers can unpickle it; all randomness comes
    from the run's seeded streams.
    """
    started = time.perf_counter()
    with _telemetry.use() if spec.collect_telemetry else nullcontext() as tele:
        run = spec.scenario.run(
            spec.policy,
            spec.preset,
            seed=point.seed,
            duration_s=spec.duration_s,
            **point.params,
            **spec.fixed,
        )
        snapshot = tele.registry.snapshot() if tele is not None else None
    return FaultPointResult(
        key=point.key,
        params=point.params,
        seed=point.seed,
        metrics=run.metrics,
        accounting={name: getattr(run, name) for name in spec.scenario.accounting},
        events_processed=run.result.events_processed,
        wall_seconds=time.perf_counter() - started,
        telemetry=snapshot,
    )


# ----------------------------------------------------------------------
# Rows and outcomes
# ----------------------------------------------------------------------
def _ratio(value: float, baseline: float) -> float:
    if baseline <= 0:
        return float("inf") if value > 0 else 1.0
    return value / baseline


@dataclass
class FaultSweepRow:
    """One grid cell aggregated across seeds, beside its baselines."""

    axes: Mapping[str, Any]
    mean_power_l: float
    mean_throughput_mbps: float
    mean_delay_ms: float
    accounting: Dict[str, Any]
    baselines: Dict[str, Level] = field(default_factory=dict)

    def vs(self, baseline: str) -> Level:
        """Mean power and throughput relative to a baseline (1.0 = parity)."""
        level = self.baselines[baseline]
        return Level(
            _ratio(self.mean_power_l, level.power_l),
            _ratio(self.mean_throughput_mbps, level.throughput_mbps),
        )


@dataclass
class FaultSweepOutcome:
    """Everything one fault sweep produced.

    ``points`` holds the surviving results in point order; quarantined
    points are absent there and listed in ``quarantined`` with their
    failure histories.  ``baselines`` maps each baseline's name to its
    metrics keyed by ``(*per_values, seed)``.
    """

    spec: FaultSpec
    points: List[FaultPointResult]
    rows: List[FaultSweepRow]
    baselines: Dict[str, Dict[tuple, RunMetrics]]
    #: Wall seconds of the supervised points (baselines excluded).
    wall_seconds: float
    #: Worker processes used: ``n_workers`` when pooled, else 1.
    workers: int
    quarantined: List[QuarantinedPoint] = field(default_factory=list)
    #: Failed attempts of the surviving points, keyed by point key.
    failure_history: Dict[str, Tuple[PointFailure, ...]] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None

    def serial_check(self) -> Tuple[List[str], float]:
        """:func:`~repro.runner.core.serial_recheck` over the surviving
        points; baselines are not part of the comparison."""
        points = [FaultPoint(result.params, result.seed) for result in self.points]
        return serial_recheck(self.spec, evaluate_fault_point, points, self.points)


def run_fault_sweep(
    scenario: FaultScenario,
    policy: PolicyTable,
    preset: ScenarioPreset,
    grid: Mapping[str, Sequence[Any]],
    *,
    seeds: Sequence[int] = (0, 1),
    duration_s: Optional[float] = None,
    fixed: Optional[Mapping[str, Any]] = None,
    n_workers: int = 1,
    parallel: bool = True,
    resilience: Optional[ResilienceConfig] = None,
    collect_telemetry: Optional[bool] = None,
) -> FaultSweepOutcome:
    """Sweep ``grid`` (one value list per scenario axis) across ``seeds``.

    Points are evaluated by :func:`~repro.runner.core.run_supervised` —
    pooled when ``parallel`` and ``n_workers > 1``, else serially — and
    merged by index, so both paths produce bit-identical outcomes
    (``identical_to``).  Worker telemetry is collected when
    ``collect_telemetry`` says so, else while a session is live here.
    The scenario's baselines then run once each, in this process, and
    every cell with a surviving point becomes a row.  A point that keeps
    raising is listed in ``outcome.quarantined``, not raised; callers must
    check it before trusting the rows.  A grid or seed list that repeats
    a value raises ``ValueError``: two points would share one key.
    """
    tele = _telemetry.session()
    collect = tele.enabled if collect_telemetry is None else collect_telemetry
    spec = FaultSpec(
        scenario=scenario,
        preset=preset,
        policy=policy,
        fixed=dict(fixed or {}),
        duration_s=duration_s,
        collect_telemetry=collect,
    )
    points = [
        FaultPoint(dict(zip(scenario.axes, values)), seed)
        for values in itertools.product(*(grid[axis] for axis in scenario.axes))
        for seed in seeds
    ]
    keys = [point.key for point in points]
    if len(set(keys)) != len(keys):
        raise ValueError(
            "fault sweep points must be unique; the grid or seeds repeat a value"
        )
    started = time.perf_counter()
    supervised = run_supervised(
        spec,
        evaluate_fault_point,
        list(enumerate(points)),
        n_workers=n_workers,
        parallel=parallel,
        resilience=resilience,
    )
    wall = time.perf_counter() - started

    # Baselines anchor the envelope; they are not part of the sweep, so
    # they run here under whatever telemetry session the caller has.
    baselines: Dict[str, Dict[tuple, RunMetrics]] = {}
    for baseline in scenario.baselines:
        baselines[baseline.name] = {
            (*where, seed): baseline.run(spec, dict(zip(baseline.per, where)), seed)
            for where in itertools.product(*(grid[axis] for axis in baseline.per))
            for seed in seeds
        }

    # Results arrive in point order, so each cell's surviving seeds are
    # consecutive; a cell whose every seed was quarantined has no row.
    rows: List[FaultSweepRow] = []
    for cell, grouped in itertools.groupby(supervised.results, key=lambda r: r.params):
        runs = list(grouped)
        aggregate = summarize_runs([run.metrics for run in runs])
        levels = {}
        for baseline in scenario.baselines:
            where = tuple(cell[axis] for axis in baseline.per)
            anchors = [baselines[baseline.name][(*where, seed)] for seed in seeds]
            levels[baseline.name] = Level(
                _telemetry.mean([m.power_l for m in anchors]),
                _telemetry.mean([m.throughput_mbps for m in anchors]),
            )
        rows.append(
            FaultSweepRow(
                axes=cell,
                mean_power_l=aggregate.mean_power_l,
                mean_throughput_mbps=aggregate.mean_throughput_mbps,
                mean_delay_ms=aggregate.mean_queueing_delay_ms,
                accounting=scenario.aggregate(runs),
                baselines=levels,
            )
        )

    report = supervised.report
    return FaultSweepOutcome(
        spec=spec,
        points=supervised.results,
        rows=rows,
        baselines=baselines,
        wall_seconds=wall,
        workers=n_workers if report.pooled else 1,
        quarantined=list(report.quarantined),
        failure_history=supervised.failure_history,
        telemetry=supervised.telemetry,
    )


def check_envelope(outcome, *, rel_tol: float = 0.05) -> List[str]:
    """Violations of the scenario's declared floors (empty = it holds).

    Every row a floor applies to must stay within ``rel_tol`` of that
    floor's baseline on *both* axes a control-plane fault can attack:
    ``mean_power_l >= (1 - rel_tol) * baseline`` (too-aggressive
    parameters overload the queue) and the same for
    ``mean_throughput_mbps`` (too-timid ones starve the senders).
    Returns one human-readable line per failing (row, floor, axis).  An
    unguarded X6 sweep is expected to violate it: its violations are the
    harm the defences exist to prevent.  A non-finite ``rel_tol`` raises
    ``ValueError``: every comparison with a NaN floor is false, so the
    envelope would hold vacuously.
    """
    if not math.isfinite(rel_tol):
        raise ValueError(f"rel_tol must be finite, got {rel_tol!r}")
    scenario = outcome.spec.scenario
    violations: List[str] = []
    for row in outcome.rows:
        cell = scenario.cell_format.format(**row.axes)
        for floor in scenario.floors:
            if floor.applies is not None and not floor.applies(row):
                continue
            name = floor.baseline
            level = row.baselines[name]
            power_floor = (1.0 - rel_tol) * level.power_l
            if row.mean_power_l < power_floor:
                violations.append(
                    f"{cell}: power {row.mean_power_l:.4f} < {floor.label} "
                    f"{power_floor:.4f} ({name} {level.power_l:.4f})"
                )
            tput_floor = (1.0 - rel_tol) * level.throughput_mbps
            if row.mean_throughput_mbps < tput_floor:
                violations.append(
                    f"{cell}: throughput {row.mean_throughput_mbps:.3f} Mbps < "
                    f"{floor.label} {tput_floor:.3f} "
                    f"({name} {level.throughput_mbps:.3f})"
                )
    return violations
