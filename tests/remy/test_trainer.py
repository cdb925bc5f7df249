"""Tests for the Remy trainer against analytic toy objectives."""

import pytest

from repro.remy.trainer import RemyTrainer
from repro.remy.whisker import Action, WhiskerTable


class TestTrainerOnToyObjectives:
    def test_improves_toward_larger_increment(self):
        # Objective: prefer large window increments; trainer should climb.
        def evaluator(table):
            return sum(w.action.window_increment for w in table.whiskers)

        trainer = RemyTrainer(evaluator, max_evaluations=40)
        result = trainer.train()
        assert result.table.whiskers[0].action.window_increment > 1.0
        assert result.score > 1.0

    def test_improves_toward_smaller_intersend(self):
        def evaluator(table):
            return -sum(w.action.intersend_s for w in table.whiskers)

        trainer = RemyTrainer(evaluator, max_evaluations=40)
        result = trainer.train()
        assert result.table.whiskers[0].action.intersend_s < 0.003

    def test_budget_respected(self):
        calls = []

        def evaluator(table):
            calls.append(1)
            return float(len(calls))  # always "improving"

        trainer = RemyTrainer(evaluator, max_evaluations=17)
        result = trainer.train()
        assert result.evaluations <= 17
        assert len(calls) <= 17

    def test_initial_table_used(self):
        seed_table = WhiskerTable.partitioned(
            WhiskerTable.PHI_DIMENSIONS, "util", n_parts=3
        )
        trainer = RemyTrainer(
            lambda t: 0.0,
            dimensions=WhiskerTable.PHI_DIMENSIONS,
            max_evaluations=5,
            initial_table=seed_table,
        )
        result = trainer.train()
        assert len(result.table) == 3
        # The seed table must not be mutated by training.
        assert seed_table.whiskers[0].action == Action.default()

    def test_history_records_initial(self):
        trainer = RemyTrainer(lambda t: 1.0, max_evaluations=5)
        result = trainer.train()
        assert result.history[0].note == "initial"
        assert result.history[0].score == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RemyTrainer(lambda t: 0.0, max_evaluations=0)

    def test_negative_objective_improvement(self):
        # Scores below zero must still allow hill climbing.
        def evaluator(table):
            return -abs(table.whiskers[0].action.window_increment - 5.0) - 1.0

        trainer = RemyTrainer(evaluator, max_evaluations=60)
        result = trainer.train()
        assert result.table.whiskers[0].action.window_increment == pytest.approx(
            5.0, abs=1.01
        )
