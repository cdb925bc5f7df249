"""The Remy trainer: offline whisker-table optimization.

Remy "is trained offline using trace-driven simulation": starting from a
fixed whisker table (one whisker covering the whole memory domain, or a
seed table), the trainer greedily tries neighbour actions on each whisker
(most-used first) and keeps changes that improve the median log-power
objective over the training scenarios.  The table's structure is fixed;
the original Remy optimizer's whisker splitting is left out.  The paper
retrains it twice, once with the classic 3-feature memory and once with
the Phi ``util`` dimension added.

The simulator is injected as ``evaluator(table) -> float`` (higher is
better), so training is unit-testable against analytic toy objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..simnet.bounds import check
from .whisker import WhiskerTable

TableEvaluator = Callable[[WhiskerTable], float]


@dataclass
class TrainingHistoryEntry:
    """One accepted improvement during training."""

    evaluation: int
    score: float
    whiskers: int
    note: str


@dataclass
class TrainingResult:
    """What :meth:`RemyTrainer.train` returns."""

    table: WhiskerTable
    score: float
    evaluations: int
    history: List[TrainingHistoryEntry] = field(default_factory=list)


#: Relative improvement required to accept a candidate action.
IMPROVEMENT_THRESHOLD = 1e-4


class RemyTrainer:
    """Greedy whisker-table optimizer with an evaluation budget.

    Parameters
    ----------
    evaluator:
        Scores a candidate table (higher is better).  Each call typically
        runs one or more packet simulations, so the trainer treats calls
        as the unit of budget.
    dimensions:
        Memory features the table partitions on
        (:attr:`WhiskerTable.CLASSIC_DIMENSIONS` or
        :attr:`WhiskerTable.PHI_DIMENSIONS`).
    max_evaluations:
        Hard budget on evaluator calls.
    """

    def __init__(
        self,
        evaluator: TableEvaluator,
        dimensions: Sequence[str] = WhiskerTable.CLASSIC_DIMENSIONS,
        *,
        max_evaluations: int = 60,
        initial_table: Optional[WhiskerTable] = None,
    ) -> None:
        check("max_evaluations", max_evaluations, ge=1, integer=True)
        self.evaluator = evaluator
        self.dimensions = tuple(dimensions)
        self.max_evaluations = max_evaluations
        self.initial_table = initial_table
        self._evaluations = 0

    def _evaluate(self, table: WhiskerTable) -> float:
        self._evaluations += 1
        return self.evaluator(table)

    @property
    def budget_left(self) -> int:
        """Remaining evaluator calls."""
        return self.max_evaluations - self._evaluations

    def train(self) -> TrainingResult:
        """Improve actions until no neighbour helps or the budget is spent."""
        self._evaluations = 0
        table = (
            self.initial_table.copy()
            if self.initial_table is not None
            else WhiskerTable(self.dimensions)
        )
        history: List[TrainingHistoryEntry] = []
        best_score = self._evaluate(table)
        history.append(
            TrainingHistoryEntry(self._evaluations, best_score, len(table), "initial")
        )

        best_score = self._improve_actions(table, best_score, history)

        return TrainingResult(
            table=table,
            score=best_score,
            evaluations=self._evaluations,
            history=history,
        )

    def _improve_actions(
        self,
        table: WhiskerTable,
        best_score: float,
        history: List[TrainingHistoryEntry],
    ) -> float:
        improved = True
        while improved and self.budget_left > 0:
            improved = False
            # Most-used whiskers first: they influence the objective most.
            order = sorted(table.whiskers, key=lambda w: -w.use_count)
            for whisker in order:
                if self.budget_left <= 0:
                    break
                original = whisker.action
                for candidate in original.neighbours():
                    if self.budget_left <= 0:
                        break
                    whisker.action = candidate
                    score = self._evaluate(table)
                    if score > best_score * (1 + IMPROVEMENT_THRESHOLD) or (
                        best_score <= 0 and score > best_score + IMPROVEMENT_THRESHOLD
                    ):
                        best_score = score
                        original = candidate
                        improved = True
                        history.append(
                            TrainingHistoryEntry(
                                self._evaluations,
                                score,
                                len(table),
                                "accepted action",
                            )
                        )
                    else:
                        whisker.action = original
        return best_score
