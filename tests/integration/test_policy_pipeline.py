"""Integration: the full Phi workflow from sweep to deployment.

Exercises the paper's pipeline end to end: run the Table-2 sweep per
congestion level (reduced grid), build a policy table from the winners,
and deploy it with a practical context server — verifying the deployed
policy beats the defaults it was derived against.
"""

import pytest

from repro.experiments import run_cubic_fixed, run_phi_cubic, run_table2_sweep
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import CongestionLevel, SharingMode, build_policy
from repro.simnet import DumbbellConfig
from repro.transport import CubicParams
from repro.workload import OnOffConfig

LIGHT = ScenarioPreset(
    name="pipeline-light",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=1.0),
    duration_s=15.0,
    description="light load for LOW-level sweep",
)
HEAVY = ScenarioPreset(
    name="pipeline-heavy",
    config=DumbbellConfig(n_senders=16),
    workload=OnOffConfig(mean_on_bytes=400_000, mean_off_s=0.4),
    duration_s=15.0,
    description="heavy load for HIGH-level sweep",
)

GRID = [
    CubicParams.default(),
    CubicParams(window_init=8, initial_ssthresh=32, beta=0.3),
    CubicParams(window_init=16, initial_ssthresh=64, beta=0.2),
    CubicParams(window_init=4, initial_ssthresh=8, beta=0.6),
]


@pytest.fixture(scope="module")
def trained_policy():
    light_results = run_table2_sweep(LIGHT, GRID, n_runs=2, base_seed=50)[0]
    heavy_results = run_table2_sweep(HEAVY, GRID, n_runs=2, base_seed=60)[0]
    return build_policy(
        {
            CongestionLevel.LOW: light_results,
            CongestionLevel.MODERATE: light_results,
            CongestionLevel.HIGH: heavy_results,
            CongestionLevel.SEVERE: heavy_results,
        }
    )


class TestSweepToPolicyToDeployment:
    def test_policy_covers_all_levels(self, trained_policy):
        for level in CongestionLevel:
            params = trained_policy.params_for_level(level)
            assert params.initial_ssthresh <= 256

    def test_policy_not_default_everywhere(self, trained_policy):
        entries = {
            trained_policy.params_for_level(level) for level in CongestionLevel
        }
        assert entries != {CubicParams.default()}

    def test_deployed_policy_beats_default_on_heavy_load(self, trained_policy):
        baseline = run_cubic_fixed(CubicParams.default(), HEAVY, seed=99)
        deployed = run_phi_cubic(
            trained_policy, HEAVY, SharingMode.PRACTICAL, seed=99
        )
        assert deployed.metrics.power_l > baseline.metrics.power_l

    def test_policy_serializes_for_shipping(self, trained_policy):
        from repro.phi import PolicyTable

        restored = PolicyTable.from_json(trained_policy.to_json())
        assert restored == trained_policy
