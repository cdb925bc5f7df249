"""The Table-3 harness: Cubic vs Remy vs Remy-Phi (ideal / practical).

Reproduces the paper's Section 2.2.4 comparison on the Table-3 topology:
"single bottleneck dumbbell topology with link speed 15 Mbps and
round-trip time 150 ms with 8 senders, each alternating between flows of
exponentially-distributed byte length (mean 100 KB) and exponentially-
distributed off time (mean 0.5 s)".

The two Remy variants are retrained here exactly as the paper describes:
the Phi variant's memory is extended "with an additional dimension
corresponding to the bottleneck link utilization, u", and "during
training, we allow each sender access to up-to-the-minute link
utilization".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import List, Optional

from ..metrics.summary import RunMetrics
from ..phi.plane import PlaneSpec, SharingMode
from ..remy.trainer import RemyTrainer, TrainingResult
from ..remy.whisker import WhiskerTable
from ..transport.cubic import CubicParams
from ..transport.remycc import RemySender
from .dumbbell import ScenarioResult, run_preset
from .scenarios import TABLE3_REMY, ScenarioPreset, run_cubic_fixed, run_plane


def run_remy_scenario(
    table: WhiskerTable,
    mode: SharingMode,
    preset: ScenarioPreset = TABLE3_REMY,
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> ScenarioResult:
    """Run the Table-3 workload with Remy senders in the given mode:
    plain Remy shares nothing, Remy-Phi runs on a healthy plane."""
    if mode is SharingMode.NONE:
        return run_preset(
            lambda env: partial(RemySender, table=table),
            preset, seed=seed, duration_s=duration_s,
        )
    spec = PlaneSpec(table=table, mode=mode)
    return run_plane(spec, preset, seed=seed, duration_s=duration_s).result


def make_table_evaluator(
    mode: SharingMode,
    preset: ScenarioPreset = TABLE3_REMY,
    *,
    duration_s: float = 30.0,
    seeds: tuple = (0, 1),
) -> callable:
    """Training objective: median log(P) over a few seeded runs.

    Classic Remy trains with ``SharingMode.NONE``; Remy-Phi trains with
    ``SharingMode.IDEAL`` (up-to-the-minute utilization), per the paper.
    """

    def evaluate(table: WhiskerTable) -> float:
        scores = []
        for seed in seeds:
            result = run_remy_scenario(
                table, mode, preset, seed=seed, duration_s=duration_s
            )
            scores.append(result.metrics.log_power)
        return median(scores)

    return evaluate


@dataclass
class Table3Row:
    """One row of Table 3."""

    algorithm: str
    median_throughput_mbps: float
    median_queueing_delay_ms: float
    median_objective: float

    def format(self) -> str:
        """Paper-shaped row: throughput (Mbps), delay (ms), objective."""
        return (
            f"{self.algorithm:<22s} {self.median_throughput_mbps:>10.2f} "
            f"{self.median_queueing_delay_ms:>12.1f} {self.median_objective:>10.2f}"
        )


@dataclass
class Table3Result:
    """The full table plus the trained artifacts."""

    rows: List[Table3Row]
    remy_training: Optional[TrainingResult] = None
    phi_training: Optional[TrainingResult] = None

    def row(self, algorithm: str) -> Table3Row:
        """Row lookup by algorithm name."""
        for row in self.rows:
            if row.algorithm == algorithm:
                return row
        raise KeyError(algorithm)

    def format(self) -> str:
        """Render the whole table, ordered as in the paper."""
        header = (
            f"{'Algorithm':<22s} {'thr(Mbps)':>10s} {'delay(ms)':>12s} "
            f"{'objective':>10s}"
        )
        return "\n".join([header] + [row.format() for row in self.rows])


def train_tables(
    *,
    budget: int = 40,
    duration_s: float = 20.0,
) -> tuple:
    """Train the classic and Phi whisker tables (deterministic).

    Returns ``(remy_result, phi_result)``.  The Phi table partitions on
    the extra ``util`` dimension and trains against ideal sharing.
    """
    remy_trainer = RemyTrainer(
        make_table_evaluator(SharingMode.NONE, TABLE3_REMY, duration_s=duration_s),
        WhiskerTable.CLASSIC_DIMENSIONS,
        max_evaluations=budget,
    )
    remy_result = remy_trainer.train()

    phi_trainer = RemyTrainer(
        make_table_evaluator(SharingMode.IDEAL, TABLE3_REMY, duration_s=duration_s),
        WhiskerTable.PHI_DIMENSIONS,
        max_evaluations=budget,
        # Start from the classic winner's geometry-free equivalent: a fresh
        # phi-dimensional table whose root action is the classic root's.
        initial_table=_seed_phi_table(remy_result.table),
    )
    phi_result = phi_trainer.train()
    return remy_result, phi_result


def _seed_phi_table(classic: WhiskerTable) -> WhiskerTable:
    """A util-partitioned table seeded with the classic root action.

    Pre-splitting along ``util`` gives the trainer distinct whiskers per
    shared-utilization band — the mechanism by which Remy-Phi conditions
    its response on the network weather — at a fraction of the budget a
    full 2^d whisker split would cost.
    """
    return WhiskerTable.partitioned(
        WhiskerTable.PHI_DIMENSIONS,
        "util",
        n_parts=2,
        action=classic.whiskers[0].action,
    )


def run_table3(
    remy_table: WhiskerTable,
    phi_table: WhiskerTable,
    *,
    n_runs: int = 4,
    duration_s: Optional[float] = None,
) -> Table3Result:
    """Evaluate all four Table-3 algorithms over ``n_runs`` seeds."""
    preset = TABLE3_REMY
    arms = [
        ("Remy-Phi-practical", lambda seed: run_remy_scenario(
            phi_table, SharingMode.PRACTICAL, preset, seed, duration_s
        )),
        ("Remy-Phi-ideal", lambda seed: run_remy_scenario(
            phi_table, SharingMode.IDEAL, preset, seed, duration_s
        )),
        ("Remy", lambda seed: run_remy_scenario(
            remy_table, SharingMode.NONE, preset, seed, duration_s
        )),
        ("Cubic", lambda seed: run_cubic_fixed(
            CubicParams.default(), preset, seed, duration_s
        )),
    ]
    rows = []
    for name, runner in arms:
        metrics: List[RunMetrics] = [runner(seed).metrics for seed in range(n_runs)]
        rows.append(
            Table3Row(
                algorithm=name,
                median_throughput_mbps=median(m.throughput_mbps for m in metrics),
                median_queueing_delay_ms=median(m.queueing_delay_ms for m in metrics),
                median_objective=median(m.log_power for m in metrics),
            )
        )
    return Table3Result(rows=rows)

