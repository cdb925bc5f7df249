"""Tests for the differential and metamorphic oracles (reduced scale)."""

import copy
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.experiments.scenarios import FIG2C_LONG_RUNNING, TABLE3_REMY, run_cubic_fixed
from repro.simcheck import InvariantViolation, oracles
from repro.simcheck.oracles import (
    ORACLES,
    dilated_preset,
    oracle_checked_vs_unchecked,
    oracle_flow_permutation,
    oracle_replica_convergence,
    oracle_replication_identity,
    oracle_time_dilation,
    oracle_unit_rescale,
    run_oracles,
)
from repro.transport import CubicParams


class TestDilatedPreset:
    def test_bdp_is_invariant(self):
        for k in (2.0, 4.0, 8.0):
            scaled = dilated_preset(TABLE3_REMY, k)
            base_cfg, cfg = TABLE3_REMY.config, scaled.config
            assert cfg.bottleneck_bandwidth_bps == base_cfg.bottleneck_bandwidth_bps / k
            assert cfg.rtt_s == base_cfg.rtt_s * k
            assert (
                cfg.bottleneck_bandwidth_bps * cfg.rtt_s
                == pytest.approx(
                    base_cfg.bottleneck_bandwidth_bps * base_cfg.rtt_s
                )
            )
            assert cfg.buffer_bdp_multiple == base_cfg.buffer_bdp_multiple

    def test_workload_bytes_unscaled_times_scaled(self):
        scaled = dilated_preset(TABLE3_REMY, 2.0)
        assert scaled.workload.mean_on_bytes == TABLE3_REMY.workload.mean_on_bytes
        assert scaled.workload.mean_off_s == TABLE3_REMY.workload.mean_off_s * 2.0
        assert scaled.duration_s == TABLE3_REMY.duration_s * 2.0

    def test_a_long_running_preset_has_no_off_time_to_dilate(self):
        with pytest.raises(ValueError, match="needs an on/off preset"):
            dilated_preset(FIG2C_LONG_RUNNING, 2.0)


class TestOracles:
    def test_unit_rescale_is_exact(self):
        outcome = oracle_unit_rescale()
        assert outcome.passed, outcome.failures
        assert outcome.details["worst_relative_error"] < 1e-9

    def test_checked_vs_unchecked_bit_identical(self):
        outcome = oracle_checked_vs_unchecked(duration_s=2.0, seed=3)
        assert outcome.passed, outcome.failures
        assert outcome.details["checks_performed"] > 0

    def test_flow_permutation_bit_identical(self):
        outcome = oracle_flow_permutation(duration_s=2.0, seed=3)
        assert outcome.passed, outcome.failures

    def test_time_dilation_within_tolerance(self):
        outcome = oracle_time_dilation(duration_s=2.0, seed=3)
        assert outcome.passed, outcome.failures
        assert outcome.details["k"] == 2.0

    def test_replication_identity_bit_identical(self, monkeypatch):
        # The clean pair and one of the six faulted pairs: the server
        # down half of every 2 s period, seed 1.  Without one health
        # machine at every replica count, this pair's event counts differ.
        monkeypatch.setattr(oracles, "IDENTITY_UNAVAILABILITY", (0.5,))
        monkeypatch.setattr(oracles, "IDENTITY_FAULT_SEEDS", (1,))
        outcome = oracle_replication_identity(duration_s=4.0, seed=3)
        assert outcome.passed, outcome.failures
        assert outcome.details == {"clean_pairs": 1, "faulted_pairs": 1}

    def test_replica_convergence_bounded(self):
        outcome = oracle_replica_convergence(duration_s=8.0, seed=3)
        assert outcome.passed, outcome.failures
        assert outcome.details["max_divergence"] > 0

    def test_registry_covers_issue_matrix(self):
        assert {
            "checked-vs-unchecked",
            "flow-permutation",
            "serial-vs-parallel",
            "grid-permutation",
            "time-dilation",
            "unit-rescale",
            "replication-identity",
            "replica-convergence",
        } <= set(ORACLES)

    def test_run_oracles_selection_and_unknown_name(self):
        outcomes = run_oracles(["unit-rescale"], duration_s=1.0)
        assert [o.name for o in outcomes] == ["unit-rescale"]
        with pytest.raises(ValueError):
            run_oracles(["no-such-oracle"])

    def test_run_oracles_dispatches_replication_oracles(self, monkeypatch):
        # Another single faulted pair: CI's partition-smoke runs all six.
        monkeypatch.setattr(oracles, "IDENTITY_UNAVAILABILITY", (0.75,))
        monkeypatch.setattr(oracles, "IDENTITY_FAULT_SEEDS", (0,))
        outcomes = run_oracles(
            ["replication-identity", "replica-convergence"],
            duration_s=4.0, seed=0,
        )
        assert all(o.passed for o in outcomes), [o.failures for o in outcomes]

    def test_outcome_serializes(self):
        import json

        outcome = oracle_unit_rescale()
        assert json.dumps(outcome.as_dict(), allow_nan=False)


class _StuckService:
    """A replicated service whose replicas neither diverge under the cut
    nor reconcile after it, and whose anti-entropy does nothing."""

    anti_entropy_merges = reports_replicated = 0

    def __init__(self, sim, capacity_bps, config):
        self.divergence_history = [(1.0, 0.0), (9.0, 1.0)]

    def sever(self, i, j):
        pass

    heal = sever

    def handle(self, index):
        return SimpleNamespace(report=lambda report: None)

    def replica_divergence(self):
        return 1.0


class TestOraclesReportPlantedMismatches:
    """Each oracle's failure branches, on runs planted to disagree."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_cubic_fixed(CubicParams.default(), TABLE3_REMY, seed=0, duration_s=2.0)

    def test_compare_scenarios_names_each_difference(self, result):
        other = replace(
            result,
            metrics=replace(result.metrics, throughput_mbps=result.metrics.throughput_mbps + 1),
            bottleneck_drop_rate=0.5,
            mean_utilization=0.01,
        )
        assert [f.split(":")[0] for f in oracles._compare_scenarios(result, other)] == [
            "metrics differ", "drop rate differs", "utilization differs",
        ]
        fewer = replace(result, per_sender_stats=result.per_sender_stats[:-1])
        assert oracles._compare_scenarios(result, fewer)[0].startswith("flow count differs")
        changed = copy.deepcopy(result.per_sender_stats)
        next(flow for flows in changed for flow in flows).packets_sent += 1
        (failure,) = oracles._compare_scenarios(result, replace(result, per_sender_stats=changed))
        assert " differs: " in failure and failure.startswith("flow ")

    def test_checked_vs_unchecked_reports_a_violation(self, result, monkeypatch):
        def run(*args, check_report=None, **kwargs):
            if check_report is not None:
                check_report.add(InvariantViolation("tcp.cwnd_floor", "flow-1", "cwnd=0.5"))
            return result

        monkeypatch.setattr(oracles, "run_cubic_fixed", run)
        (failure,) = oracle_checked_vs_unchecked(duration_s=2.0).failures
        assert failure.startswith("invariant violation under checked run: ")

    def test_time_dilation_flags_a_run_that_does_not_rescale(self, result, monkeypatch):
        lossier = replace(result.metrics, loss_rate=result.metrics.loss_rate + 0.5)
        runs = iter([result, replace(result, metrics=lossier)])
        monkeypatch.setattr(oracles, "run_cubic_fixed", lambda *args, **kwargs: next(runs))
        outcome = oracle_time_dilation(duration_s=2.0)
        labels = {failure.split(":")[0] for failure in outcome.failures}
        assert {"throughput_mbps", "mean_rtt_ms", "loss_rate", "P_l"} <= labels
        assert oracles._rel_err(0.5, 0.0) == 0.5  # nothing expected: the error is absolute

    def test_unit_rescale_flags_an_objective_that_is_not_scale_free(self, monkeypatch):
        monkeypatch.setattr(oracles, "power_with_loss", lambda r, d, loss: r / d + 1.0)
        outcome = oracle_unit_rescale()
        assert not outcome.passed
        assert outcome.failures[0].startswith("P_l ratio 0/1 drifts under unit scale")

    def test_replication_identity_names_each_difference(self, result, monkeypatch):
        runs = iter([
            SimpleNamespace(result=result, decision_counts={"fresh": 1}),
            SimpleNamespace(
                result=replace(result, events_processed=result.events_processed + 1),
                decision_counts={"fresh": 2},
            ),
        ])
        monkeypatch.setattr(oracles, "run_plane", lambda *args, **kwargs: next(runs))
        assert [f.split(":")[0] for f in oracles.identity_pair_failures(0, 2.0)] == [
            "event count differs", "decision counts differ",
        ]
        monkeypatch.setattr(oracles, "IDENTITY_UNAVAILABILITY", (0.25,))
        monkeypatch.setattr(oracles, "IDENTITY_FAULT_SEEDS", (0,))
        monkeypatch.setattr(
            oracles, "identity_pair_failures",
            lambda seed, duration_s, **dials: ["planted"] if dials else [],
        )
        assert oracle_replication_identity(duration_s=2.0).failures == [
            "unavailability=0.25 seed=0: planted"
        ]

    def test_replica_convergence_names_each_broken_guarantee(self, monkeypatch):
        monkeypatch.setattr(oracles, "ReplicatedContextService", _StuckService)
        failures = oracle_replica_convergence(duration_s=10.0).failures
        assert [failure.split(" ")[0] for failure in failures] == [
            "no", "divergence", "divergence", "final", "anti-entropy",
        ]
