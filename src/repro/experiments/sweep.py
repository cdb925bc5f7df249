"""Table-2 sweep drivers on top of :mod:`repro.runner`.

The only Table-2 sweep path: (preset, grid, seeds) in,
:class:`~repro.phi.optimizer.SweepResult` lists out, every point one
:func:`~repro.experiments.scenarios.run_cubic_fixed` evaluated by the
multiprocess :class:`~repro.runner.SweepRunner` with per-point caching.
``run_parameter_sweep(..., parallel=False)`` is the in-process serial
pass used for determinism checks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..phi.optimizer import SweepResult
from ..runner.cache import DiskCache
from ..runner.core import SweepOutcome, SweepRunner
from ..runner.progress import ProgressReporter
from ..runner.resilience import ResilienceConfig
from ..simnet.engine import WatchdogConfig
from ..transport.cubic import CubicParams, cubic_sweep_grid
from .scenarios import TABLE3_REMY, ScenarioPreset


def run_parameter_sweep(
    preset: ScenarioPreset = TABLE3_REMY,
    grid: Optional[Iterable[CubicParams]] = None,
    *,
    n_runs: int = 8,
    base_seed: int = 0,
    duration_s: Optional[float] = None,
    n_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressReporter] = None,
    parallel: bool = True,
    resilience: Optional[ResilienceConfig] = None,
    watchdog: Optional[WatchdogConfig] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    flightrec_dir: Optional[str] = None,
) -> SweepOutcome:
    """Sweep a Cubic parameter grid over ``preset`` via the runner.

    Defaults reproduce the paper's setup: the full 576-point Table-2
    grid, 8 runs per point, seeds ``base_seed + run_index`` shared across
    grid points so leave-one-out comparisons see identical workloads.

    ``checkpoint_dir``/``resume`` journal completed points so an
    interrupted sweep can pick up where it died; ``resilience`` and
    ``watchdog`` tune crash/hang supervision (see
    :mod:`repro.runner.resilience` and
    :class:`~repro.simnet.engine.SimWatchdog`).

    ``flightrec_dir`` arms the per-point flight recorder (dumps land
    there on anomalies; defaults to ``checkpoint_dir``).
    """
    points = list(grid) if grid is not None else list(cubic_sweep_grid())
    cache = DiskCache(cache_dir) if cache_dir is not None else None
    runner = SweepRunner(
        preset,
        duration_s=duration_s,
        n_workers=n_workers,
        cache=cache,
        progress=progress,
        resilience=resilience,
        watchdog=watchdog,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        flightrec_dir=flightrec_dir,
    )
    return runner.run(points, n_runs=n_runs, base_seed=base_seed, parallel=parallel)


def run_table2_sweep(
    preset: ScenarioPreset = TABLE3_REMY,
    grid: Optional[Iterable[CubicParams]] = None,
    **kwargs,
) -> Tuple[List[SweepResult], SweepOutcome]:
    """The optimizer-facing entry point: sweep, then reshape.

    Returns the classic ``List[SweepResult]`` (grid order, runs in
    run-index order) ready for :func:`~repro.phi.optimizer.select_optimal`
    and :func:`~repro.phi.optimizer.leave_one_out`, plus the raw outcome
    with per-point flow records and timings.
    """
    outcome = run_parameter_sweep(preset, grid, **kwargs)
    return outcome.to_sweep_results(), outcome
