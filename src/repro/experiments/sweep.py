"""The Table-2 sweep entry point on top of :mod:`repro.runner`.

The only Table-2 sweep path: (preset, grid, seeds) in,
:class:`~repro.phi.optimizer.SweepResult` lists out, every point one
:func:`~repro.experiments.scenarios.run_cubic_fixed` evaluated by the
multiprocess :class:`~repro.runner.SweepRunner` with per-point caching.
Callers that want the raw :class:`~repro.runner.SweepOutcome` alone
construct the runner themselves, as the CLI does.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..phi.optimizer import SweepResult
from ..runner.core import SweepOutcome, SweepRunner
from ..transport.cubic import CubicParams, cubic_sweep_grid
from .scenarios import TABLE3_REMY, ScenarioPreset


def run_table2_sweep(
    preset: ScenarioPreset = TABLE3_REMY,
    grid: Optional[Iterable[CubicParams]] = None,
    *,
    n_runs: int = 8,
    base_seed: int = 0,
    **runner,
) -> Tuple[List[SweepResult], SweepOutcome]:
    """Sweep a Cubic parameter grid over ``preset``, then reshape.

    Defaults reproduce the paper's setup: the full 576-point Table-2
    grid, 8 runs per point, seeds ``base_seed + run_index`` shared across
    grid points so leave-one-out comparisons see identical workloads.
    ``runner`` takes :class:`~repro.runner.SweepRunner`'s keywords
    (``duration_s``, ``n_workers``, ``cache``, ``checkpoint_dir``, ...).

    Returns the classic ``List[SweepResult]`` (grid order, runs in
    run-index order) ready for :func:`~repro.phi.optimizer.select_optimal`
    and :func:`~repro.phi.optimizer.leave_one_out`, plus the raw outcome
    with per-point flow records and timings.
    """
    outcome = SweepRunner(preset, **runner).run(
        cubic_sweep_grid() if grid is None else grid,
        n_runs=n_runs,
        base_seed=base_seed,
    )
    return outcome.to_sweep_results(), outcome
