"""Golden trajectories: the data plane's results, pinned by hash.

Each constant is the sha256 of ``canonical_json(RunMetrics + flow
records)`` for one short run, captured on the commit *before* the
entry-as-handle calendar / deadline RTO / O(1) in-order sink change and
committed ahead of it.  The flow records carry every RTT sample, so they
are built from the live ``ConnectionStats`` (a ``FlowRecord`` holds only
the samples' count and digest).  A data-plane optimisation that claims
"bit-identical trajectories" keeps these green; one that means to move
trajectories bumps ``ENGINE_SIGNATURE`` and re-captures them in the same
change.

The two fig-2c constants were re-captured with the
``phi-simnet-v5-fused-link`` bump (ties at the instant the wire clears
bypass the queue, which moves ``loss_rate``; ``snd_nxt`` is clamped up to
``snd_una``); table-3, partitioned-Phi and window-full passed unedited.

``GOLDEN_WINDOW_FULL`` was captured the same way ahead of the cached
window contributions in ``ContextServer``: a 13 sim-s short-flow run is
the only pinned one in which reports age out of, and straddle the left
edge of, the server's 10 s window.

CI runs this file under two ``PYTHONHASHSEED`` values: nothing on the
data plane may depend on set or dict iteration order of hashed strings.
"""

import hashlib
from dataclasses import asdict

import pytest

from repro.experiments import (
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    ScenarioPreset,
    run_cubic_fixed,
    run_partitioned_phi_cubic,
)
from repro.phi import REFERENCE_POLICY
from repro.runner import canonical_json
from repro.simnet import DumbbellConfig
from repro.transport import CubicParams
from repro.workload import OnOffConfig

from tests.runner.conftest import flow_dict_with_samples

PARAMS = CubicParams(4, 64, 0.7)


def trajectory_digest(result) -> str:
    """sha256 over everything a run reports about its flows."""
    payload = {
        "metrics": asdict(result.metrics),
        "flows": [
            flow_dict_with_samples(stats)
            for sender in result.per_sender_stats
            for stats in sender
        ],
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


GOLDEN_CUBIC = {
    ("table3", 1): "6845e4efdfa21e232ccb6f2be9f66f5b11d9bf9448fdfb9bb9ae1e00e34ea64b",
    ("table3", 2): "e4cb9732934cf052e4dad74f424b9ca3c1d1001af8827572856ecd4c3556c62d",
    ("fig2c", 1): "c7a9833502823f191534c7ad72e61fdc11e6990f51671fefab55b2b3bd8bf343",
    ("fig2c", 2): "7f1af4a6a0525cc03a5f8d1625d6eb9226a5f08fb49199f36332fd3039028bf9",
}

GOLDEN_PARTITIONED = "5835403ad1a8a2b0ebc4e879115c5e8ad24d6319ffdfebee4bf5c21fe3d8fa89"

GOLDEN_WINDOW_FULL = "549854321dd84ba7e2a35049ad7ef278224ecd771e665d8278a5b90522a6f039"

_PRESETS = {"table3": (TABLE3_REMY, 10.0), "fig2c": (FIG2C_LONG_RUNNING, 4.0)}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_CUBIC))
def test_cubic_fixed_trajectory_is_pinned(name, seed):
    preset, duration_s = _PRESETS[name]
    result = run_cubic_fixed(PARAMS, preset, seed=seed, duration_s=duration_s)
    assert result.connections > 0
    assert trajectory_digest(result) == GOLDEN_CUBIC[(name, seed)]


def test_partitioned_phi_trajectory_is_pinned():
    run = run_partitioned_phi_cubic(
        REFERENCE_POLICY,
        TABLE3_REMY,
        n_replicas=3,
        severity=0.34,
        partition_start_s=2.0,
        heal_s=3.0,
        seed=1,
        duration_s=8.0,
    )
    assert run.failovers > 0
    assert trajectory_digest(run.result) == GOLDEN_PARTITIONED


def test_window_full_phi_trajectory_is_pinned():
    """~190 flows/s for 13 sim-s: the 10 s window fills, expires and
    straddles, and the cut at 10.5 s lands on full windows.  Integers and
    the digest only — the raw utilization floats differ between 3.10 and
    3.12 (``sum`` is compensated from 3.12)."""
    preset = ScenarioPreset(
        name="golden-phi-shortflows",
        config=DumbbellConfig(n_senders=8, rtt_s=0.020),
        workload=OnOffConfig(mean_on_bytes=3000, mean_off_s=0.02, start_jitter_s=0.1),
        duration_s=13.0,
        description="perf's phi_shortflows preset, run past one full window",
    )
    run = run_partitioned_phi_cubic(
        REFERENCE_POLICY,
        preset,
        n_replicas=3,
        severity=0.34,
        partition_start_s=10.5,
        heal_s=1.5,
        seed=1,
        duration_s=13.0,
    )
    assert run.failovers == 1
    assert run.reports_replicated == 4888
    assert run.decision_counts["fresh"] == sum(run.decision_counts.values()) == 2448
    assert trajectory_digest(run.result) == GOLDEN_WINDOW_FULL
