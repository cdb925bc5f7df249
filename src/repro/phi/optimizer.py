"""Offline parameter optimization: analyses over a Table-2 sweep.

The optimizer never runs the simulator: it reads :class:`SweepResult`
lists — one per grid point, its runs in run-index order — which
:func:`repro.experiments.sweep.run_table2_sweep` produces (Figures
2a-2c) and tests build by hand.

- :func:`select_optimal` — the P_l-optimal setting;
- :func:`leave_one_out` — Figure 3's stability validation ("for each
  workload, we take the 'optimal' parameter settings from one run and
  evaluate its performance on the remaining n-1 runs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..metrics.summary import RunMetrics
from ..transport.cubic import CubicParams, cubic_sweep_grid
from .context import CongestionLevel
from .policy import PolicyTable

#: The paper's Table 2 grid, materialized.
CUBIC_SWEEP_GRID: List[CubicParams] = list(cubic_sweep_grid())


@dataclass
class SweepResult:
    """All runs of one parameter setting under one workload."""

    params: CubicParams
    runs: List[RunMetrics] = field(default_factory=list)

    @property
    def mean_power_l(self) -> float:
        """Mean of the paper's optimization objective across runs."""
        if not self.runs:
            return 0.0
        return sum(run.power_l for run in self.runs) / len(self.runs)

    @property
    def mean_throughput_mbps(self) -> float:
        """Mean throughput across runs."""
        if not self.runs:
            return 0.0
        return sum(run.throughput_mbps for run in self.runs) / len(self.runs)

    @property
    def mean_queueing_delay_ms(self) -> float:
        """Mean queueing delay across runs."""
        if not self.runs:
            return 0.0
        return sum(run.queueing_delay_ms for run in self.runs) / len(self.runs)

    @property
    def mean_loss_rate(self) -> float:
        """Mean bottleneck loss rate across runs."""
        if not self.runs:
            return 0.0
        return sum(run.loss_rate for run in self.runs) / len(self.runs)


def select_optimal(results: Sequence[SweepResult]) -> SweepResult:
    """The sweep point with the best mean P_l."""
    if not results:
        raise ValueError("select_optimal needs at least one sweep result")
    return max(results, key=lambda r: r.mean_power_l)


@dataclass(frozen=True)
class LeaveOneOutRecord:
    """Figure 3, one held-out run.

    ``chosen_params`` maximized P_l on run ``held_out_run`` alone;
    ``transfer_power_l`` is that setting's mean P_l on the other runs,
    compared against the per-run-optimal and default baselines.
    """

    held_out_run: int
    chosen_params: CubicParams
    transfer_power_l: float
    oracle_power_l: float
    default_power_l: float

    @property
    def gain_over_default(self) -> float:
        """Transfer P_l relative to the default setting (>1 means better)."""
        if self.default_power_l <= 0:
            return float("inf") if self.transfer_power_l > 0 else 1.0
        return self.transfer_power_l / self.default_power_l

    @property
    def fraction_of_oracle(self) -> float:
        """How much of the per-run-optimal gain the transfer retains."""
        if self.oracle_power_l <= 0:
            return 1.0
        return self.transfer_power_l / self.oracle_power_l


def leave_one_out(
    results: Sequence[SweepResult],
    default_params: Optional[CubicParams] = None,
) -> List[LeaveOneOutRecord]:
    """Figure 3's stability analysis over a completed sweep.

    For each run index i: pick the grid point that won on run i, then
    score it on the remaining runs.  Requires every grid point to have the
    same number of runs.
    """
    if not results:
        raise ValueError("leave_one_out needs sweep results")
    n_runs = len(results[0].runs)
    if any(len(r.runs) != n_runs for r in results):
        raise ValueError("all sweep results must have the same number of runs")
    if n_runs < 2:
        raise ValueError("leave_one_out needs at least 2 runs per grid point")

    if default_params is None:
        default_params = CubicParams.default()
    default_result = _find_params(results, default_params)

    records = []
    for held_out in range(n_runs):
        chosen = max(results, key=lambda r: r.runs[held_out].power_l)
        other_indices = [i for i in range(n_runs) if i != held_out]
        transfer = _mean_power_l(chosen, other_indices)
        oracle = max(_mean_power_l(r, other_indices) for r in results)
        default_score = (
            _mean_power_l(default_result, other_indices)
            if default_result is not None
            else 0.0
        )
        records.append(
            LeaveOneOutRecord(
                held_out_run=held_out,
                chosen_params=chosen.params,
                transfer_power_l=transfer,
                oracle_power_l=oracle,
                default_power_l=default_score,
            )
        )
    return records


def _find_params(
    results: Sequence[SweepResult], params: CubicParams
) -> Optional[SweepResult]:
    for result in results:
        if result.params == params:
            return result
    return None


def _mean_power_l(result: SweepResult, indices: Sequence[int]) -> float:
    values = [result.runs[i].power_l for i in indices]
    return sum(values) / len(values)


def build_policy(
    per_level_results: Mapping[CongestionLevel, Sequence[SweepResult]],
) -> PolicyTable:
    """Assemble a :class:`PolicyTable` from per-congestion-level sweeps.

    Levels without sweep data inherit the nearest lower level's winner
    (or the default parameters when nothing at all is available below).
    """
    entries: Dict[CongestionLevel, CubicParams] = {}
    previous = CubicParams.default()
    for level in sorted(CongestionLevel, key=lambda lvl: lvl.rank):
        results = per_level_results.get(level)
        if results:
            previous = select_optimal(results).params
        entries[level] = previous
    return PolicyTable(entries)
