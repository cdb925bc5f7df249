"""The fault-sweep harness: one point/row/envelope path for X4, X6, X7.

The paper's practical claim — lookup-at-start / report-at-end sharing
"preserves most of the gain" — is defended by sweeps that break the
control plane on purpose: the server goes absent (X4,
:mod:`~repro.experiments.degraded`), lies (X6,
:mod:`~repro.experiments.poisoned`), or is replicated and partitioned
(X7, :mod:`~repro.experiments.partitioned`).  Each of those modules is a
*declaration* — a :class:`FaultScenario` naming the swept axes, the
``run_*_phi_cubic`` function, the accounting fields carried per point
and how each aggregates across seeds, the baselines that anchor every
row, and the floors of the safety envelope.  Everything else lives here
once:

- ``(axes, seed)`` points evaluated through the
  :class:`~repro.runner.resilience.SweepSupervisor` (pooled or serial,
  retried, quarantined) and merged by index, so serial and parallel
  sweeps are bit-identical (:meth:`FaultPointResult.identical_to`);
- per-point private telemetry sessions, merged in index order;
- named baselines evaluated once per sweep;
- per-cell aggregation driven by the declared aggregators;
- one ratio, one two-axis floor test (:func:`check_envelope`), and one
  serial determinism re-check (:func:`serial_mismatches`).

Adding a fault scenario is one file: write its ``run_*`` function and
declare a :class:`FaultScenario` over it.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple
from typing import Optional, Sequence, Tuple

from .. import telemetry as _telemetry
from ..metrics.summary import RunMetrics, summarize_runs
from ..phi.policy import PolicyTable
from ..runner.resilience import ExecutionReport, ResilienceConfig, SweepSupervisor
from ..telemetry.registry import merge_snapshots
from ..transport.cubic import CubicParams
from .scenarios import ScenarioPreset, run_cubic_fixed


# ----------------------------------------------------------------------
# Aggregators: how one accounting field combines across a cell's seeds
# (and across a whole sweep, for manifest totals).  ``sum`` is the builtin.
# ----------------------------------------------------------------------
def mean(values: Sequence[float]) -> float:
    return sum(values) / max(1, len(values))


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

    #: The sweep's verb: manifest ``command`` and flight-recorder dump tag.
    name: str
    #: Keyword arguments of ``run`` the sweep varies, outermost loop first.
    axes: Tuple[str, ...]
    #: ``run(policy, preset, *, seed, duration_s, **axes, **fixed)``; its
    #: result has ``metrics``, ``result.events_processed`` and one
    #: attribute per accounting field.
    run: Callable[..., Any]
    #: Result field -> aggregator.  Every field is carried per point,
    #: compared by ``identical_to``, aggregated per row and — unless
    #: omitted below — listed in the manifest.
    accounting: Mapping[str, Callable[[list], Any]]
    #: ``str.format`` template over the axes, naming a cell in violations.
    cell_format: str
    baselines: Tuple[Baseline, ...] = ()
    floors: Tuple[Floor, ...] = ()
    #: Manifest name of the per-point accounting block.
    point_block: str = "accounting"
    #: Accounting fields the manifest reports beside the axes under
    #: ``params`` (and nowhere else).
    params_extra: Tuple[str, ...] = ()
    #: Accounting fields left out of the per-point block / sweep totals.
    block_omit: Tuple[str, ...] = ()
    totals_omit: Tuple[str, ...] = ()

    def aggregate(
        self, results: Sequence["FaultPointResult"], omit: Sequence[str] = ()
    ) -> Dict[str, Any]:
        """Each accounting field (bar ``omit``) aggregated over ``results``."""
        return {
            name: aggregator([result.accounting[name] for result in results])
            for name, aggregator in self.accounting.items()
            if name not in omit
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
    """One (axes, seed) evaluation."""

    axes: Mapping[str, Any]
    seed: int

    @property
    def params(self) -> Mapping[str, Any]:
        """The axes, under the name quarantine reports read."""
        return self.axes


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
    """One point's outcome, by-value across the pool boundary."""

    axes: Mapping[str, Any]
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
            self.axes == other.axes
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
            **point.axes,
            **spec.fixed,
        )
        snapshot = tele.registry.snapshot() if tele is not None else None
    return FaultPointResult(
        axes=point.axes,
        seed=point.seed,
        metrics=run.metrics,
        accounting={name: getattr(run, name) for name in spec.scenario.accounting},
        events_processed=run.result.events_processed,
        wall_seconds=time.perf_counter() - started,
        telemetry=snapshot,
    )


def _supervise(
    spec: FaultSpec,
    pending: List[Tuple[int, FaultPoint]],
    *,
    n_workers: int,
    parallel: bool,
    resilience: Optional[ResilienceConfig] = None,
) -> Tuple[Dict[int, FaultPointResult], ExecutionReport]:
    """Evaluate ``pending`` under supervision; results keyed by index."""
    by_index: Dict[int, FaultPointResult] = {}
    supervisor = SweepSupervisor(
        spec,
        evaluate_fault_point,
        config=resilience or ResilienceConfig(),
        n_workers=max(1, n_workers),
    )
    report = supervisor.execute(pending, by_index.__setitem__, parallel=parallel)
    return by_index, report


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

    ``by_index`` holds the surviving results under their index into
    ``points`` (quarantined points are absent; see ``report``);
    ``baselines`` maps each baseline's name to its metrics keyed by
    ``(*per_values, seed)``.
    """

    spec: FaultSpec
    points: List[FaultPoint]
    by_index: Dict[int, FaultPointResult]
    rows: List[FaultSweepRow]
    baselines: Dict[str, Dict[tuple, RunMetrics]]
    report: ExecutionReport
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def results(self) -> List[FaultPointResult]:
        """The surviving results, in point order."""
        return [self.by_index[index] for index in sorted(self.by_index)]


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

    Points are evaluated through the :class:`SweepSupervisor` — pooled
    when ``parallel`` and ``n_workers > 1``, else serially — and merged
    by index, so both paths produce bit-identical outcomes
    (``identical_to``).  The scenario's baselines then run once each, in
    this process, and every cell with a surviving point becomes a row.
    A point that keeps raising is quarantined in ``outcome.report``, not
    raised; callers must check it before trusting the rows.
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
    cells = [
        dict(zip(scenario.axes, values))
        for values in itertools.product(*(grid[axis] for axis in scenario.axes))
    ]
    points = [FaultPoint(cell, seed) for cell in cells for seed in seeds]
    by_index, report = _supervise(
        spec,
        list(enumerate(points)),
        n_workers=n_workers,
        parallel=parallel,
        resilience=resilience,
    )

    # Baselines anchor the envelope; they are not part of the sweep, so
    # they run here under whatever telemetry session the caller has.
    baselines: Dict[str, Dict[tuple, RunMetrics]] = {}
    for baseline in scenario.baselines:
        baselines[baseline.name] = {
            (*where, seed): baseline.run(spec, dict(zip(baseline.per, where)), seed)
            for where in itertools.product(*(grid[axis] for axis in baseline.per))
            for seed in seeds
        }

    rows: List[FaultSweepRow] = []
    for cell_index, cell in enumerate(cells):
        first = cell_index * len(seeds)
        runs = [
            by_index[index]
            for index in range(first, first + len(seeds))
            if index in by_index
        ]
        if not runs:
            continue
        aggregate = summarize_runs([run.metrics for run in runs])
        levels = {}
        for baseline in scenario.baselines:
            where = tuple(cell[axis] for axis in baseline.per)
            anchors = [baselines[baseline.name][(*where, seed)] for seed in seeds]
            levels[baseline.name] = Level(
                mean([m.power_l for m in anchors]),
                mean([m.throughput_mbps for m in anchors]),
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

    outcome = FaultSweepOutcome(
        spec=spec,
        points=points,
        by_index=by_index,
        rows=rows,
        baselines=baselines,
        report=report,
    )
    if collect:
        # Index order (not completion order) keeps the merged snapshot
        # bit-identical between serial and parallel sweeps.
        outcome.telemetry = merge_snapshots(
            result.telemetry
            for result in outcome.results
            if result.telemetry is not None
        )
    return outcome


def serial_mismatches(outcome: FaultSweepOutcome) -> int:
    """Re-evaluate the surviving points serially; count those that differ.

    The determinism check behind ``--serial-check``: only points are
    re-run (baselines are not part of the comparison), each compared
    with the first pass's result *for the same point index*, so a
    quarantined point cannot shift the comparison.  A point that
    survived the first pass but not the re-run counts as a mismatch.
    """
    spec = replace(outcome.spec, collect_telemetry=False)
    pending = [(index, outcome.points[index]) for index in sorted(outcome.by_index)]
    rerun, _report = _supervise(spec, pending, n_workers=1, parallel=False)
    return sum(
        1
        for index, result in outcome.by_index.items()
        if index not in rerun or not rerun[index].identical_to(result)
    )


def check_envelope(outcome, *, rel_tol: float = 0.05) -> List[str]:
    """Violations of the scenario's declared floors (empty = it holds).

    Every row a floor applies to must stay within ``rel_tol`` of that
    floor's baseline on *both* axes a control-plane fault can attack:
    ``mean_power_l >= (1 - rel_tol) * baseline`` (too-aggressive
    parameters overload the queue) and the same for
    ``mean_throughput_mbps`` (too-timid ones starve the senders).
    Returns one human-readable line per failing (row, floor, axis).
    """
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
