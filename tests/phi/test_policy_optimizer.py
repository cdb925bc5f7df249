"""Tests for policy tables and the sweep optimizer (incl. leave-one-out)."""

import pytest

from repro.metrics.summary import RunMetrics
from repro.phi.context import CongestionContext, CongestionLevel
from repro.phi.optimizer import (
    CUBIC_SWEEP_GRID,
    SweepResult,
    build_policy,
    leave_one_out,
    select_optimal,
)
from repro.phi.policy import REFERENCE_POLICY, PolicyTable
from repro.transport.cubic import CubicParams


def metrics(throughput=1.0, delay=10.0, loss=0.0):
    return RunMetrics(
        throughput_mbps=throughput,
        queueing_delay_ms=delay,
        loss_rate=loss,
        connections=10,
        total_bytes=1000,
    )


class TestPolicyTable:
    def test_must_cover_all_levels(self):
        with pytest.raises(ValueError):
            PolicyTable({CongestionLevel.LOW: CubicParams.default()})

    def test_lookup_by_context(self):
        ctx = CongestionContext(0.95, 0.0, 10.0)
        params = REFERENCE_POLICY.params_for(ctx)
        assert params == REFERENCE_POLICY.params_for_level(CongestionLevel.SEVERE)

    def test_reference_policy_shape(self):
        # "optimal settings ... shift to be smaller as the link
        # utilization becomes higher"
        low = REFERENCE_POLICY.params_for_level(CongestionLevel.LOW)
        severe = REFERENCE_POLICY.params_for_level(CongestionLevel.SEVERE)
        assert low.window_init > severe.window_init
        assert low.initial_ssthresh > severe.initial_ssthresh
        assert low.beta < severe.beta  # sharper backoff under load
        default = CubicParams.default()
        for level in CongestionLevel:
            entry = REFERENCE_POLICY.params_for_level(level)
            assert entry.initial_ssthresh < default.initial_ssthresh

    def test_with_entry(self):
        new_params = CubicParams(window_init=7)
        entries = {level: REFERENCE_POLICY.params_for_level(level) for level in CongestionLevel}
        entries[CongestionLevel.LOW] = new_params
        table = PolicyTable(entries)
        assert table.params_for_level(CongestionLevel.LOW) == new_params
        assert table != REFERENCE_POLICY

    def test_json_round_trip(self):
        restored = PolicyTable.from_json(REFERENCE_POLICY.to_json())
        assert restored == REFERENCE_POLICY


class TestSweep:
    def test_grid_matches_table2(self):
        assert len(CUBIC_SWEEP_GRID) == 576

    def test_select_optimal_by_power_l(self):
        good = SweepResult(CubicParams(window_init=8), [metrics(throughput=5)])
        bad = SweepResult(CubicParams.default(), [metrics(throughput=1)])
        assert select_optimal([bad, good]) is good

    def test_select_optimal_empty(self):
        with pytest.raises(ValueError):
            select_optimal([])

    def test_sweep_result_means(self):
        result = SweepResult(
            CubicParams.default(),
            [metrics(throughput=1, delay=10), metrics(throughput=3, delay=20)],
        )
        assert result.mean_throughput_mbps == pytest.approx(2.0)
        assert result.mean_queueing_delay_ms == pytest.approx(15.0)
        assert result.mean_loss_rate == 0.0


class TestLeaveOneOut:
    def _results(self):
        # Setting A is consistently good; default is consistently bad;
        # setting B is noisy.
        a = SweepResult(
            CubicParams(window_init=16, initial_ssthresh=64),
            [metrics(throughput=4), metrics(throughput=4.2), metrics(throughput=3.9)],
        )
        default = SweepResult(
            CubicParams.default(),
            [metrics(throughput=1), metrics(throughput=1.1), metrics(throughput=0.9)],
        )
        b = SweepResult(
            CubicParams(window_init=4),
            [metrics(throughput=2), metrics(throughput=0.5), metrics(throughput=2.1)],
        )
        return [a, default, b]

    def test_stable_winner_transfers(self):
        records = leave_one_out(self._results())
        assert len(records) == 3
        for record in records:
            assert record.chosen_params.window_init == 16
            assert record.gain_over_default > 1.0
            assert 0 < record.fraction_of_oracle <= 1.0

    def test_requires_consistent_run_counts(self):
        results = self._results()
        results[0].runs.pop()
        with pytest.raises(ValueError):
            leave_one_out(results)

    def test_requires_two_runs(self):
        result = SweepResult(CubicParams.default(), [metrics()])
        with pytest.raises(ValueError):
            leave_one_out([result])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            leave_one_out([])


class TestBuildPolicy:
    def test_levels_inherit_downward(self):
        low_win = SweepResult(CubicParams(window_init=32), [metrics(throughput=9)])
        policy = build_policy({CongestionLevel.LOW: [low_win]})
        assert policy.params_for_level(CongestionLevel.LOW).window_init == 32
        # Uncovered levels inherit the nearest lower level's winner.
        assert policy.params_for_level(CongestionLevel.SEVERE).window_init == 32

    def test_defaults_when_no_data(self):
        policy = build_policy({})
        assert policy.params_for_level(CongestionLevel.LOW) == CubicParams.default()

    def test_per_level_winners(self):
        by_level = {
            CongestionLevel.LOW: [
                SweepResult(CubicParams(window_init=32), [metrics(throughput=9)])
            ],
            CongestionLevel.SEVERE: [
                SweepResult(CubicParams(window_init=2), [metrics(throughput=2)])
            ],
        }
        policy = build_policy(by_level)
        assert policy.params_for_level(CongestionLevel.LOW).window_init == 32
        assert policy.params_for_level(CongestionLevel.SEVERE).window_init == 2
        # MODERATE/HIGH inherit LOW's winner.
        assert policy.params_for_level(CongestionLevel.HIGH).window_init == 32
