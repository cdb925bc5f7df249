"""Tests for the differential and metamorphic oracles (reduced scale)."""

import pytest

from repro.experiments.scenarios import TABLE3_REMY
from repro.simcheck import oracles
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
