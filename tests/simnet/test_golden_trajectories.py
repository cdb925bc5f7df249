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
They moved again with ``phi-simnet-v7-rto-on-stopped-timer`` (a send
starts the RTO only when it is stopped, RFC 6298 §5.1), and nothing
else here did.  ``GOLDEN_LOSSY`` was captured with that bump: a lossy
Fig 2b run, the RED ablation's bottleneck and four competing Remy
senders, the runs whose loss path no earlier constant pinned.

``GOLDEN_WINDOW_FULL`` was captured the same way ahead of the cached
window contributions in ``ContextServer``: a 13 sim-s short-flow run is
the only pinned one in which reports age out of, and straddle the left
edge of, the server's 10 s window.

``GOLDEN_DEGRADED`` is a single-server plane down half of every 5 s
period, so its one-replica failover channel benches the server, refuses
calls and calls a down server again in each seed.  It was captured ahead
of the one-attempt control channel, and re-captured with the
``phi-simnet-v6-one-replica-health`` bump (the circuit breaker gone, a
single server judged by the failover channel's constant suspension);
every other constant here passed unedited.

CI runs this file under two ``PYTHONHASHSEED`` values: nothing on the
data plane may depend on set or dict iteration order of hashed strings.
"""

import hashlib
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest

from repro.experiments import (
    FIG2A_LOW_UTILIZATION,
    FIG2B_HIGH_UTILIZATION,
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    ScenarioPreset,
    run_cubic_fixed,
    run_degraded_phi_cubic,
    run_partitioned_phi_cubic,
    run_preset,
)
from repro.phi import REFERENCE_POLICY
from repro.remy import WhiskerTable
from repro.remy.whisker import Action
from repro.runner import canonical_json
from repro.simnet import DumbbellConfig, RedQueue
from repro.transport import CubicParams, CubicSender, RemySender
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
    ("fig2c", 1): "f34b01fe3b8612dc234b004772c74543a9d751e7604670d4cbbf2d8ffb4ff597",
    ("fig2c", 2): "2049b523a2f1a34502d89bd108b98cabe427dbc2d466658e01e85a07ed574e41",
}

GOLDEN_PARTITIONED = "5835403ad1a8a2b0ebc4e879115c5e8ad24d6319ffdfebee4bf5c21fe3d8fa89"

GOLDEN_WINDOW_FULL = "549854321dd84ba7e2a35049ad7ef278224ecd771e665d8278a5b90522a6f039"

GOLDEN_DEGRADED = {
    0: "b244a827e17ca981ae9c65347ba22e2487520e264600c0c3cc53d43f015e39b4",
    1: "6c35cccaee28e547d93c347149926a5480dd623a154b17a17d6ee289745c06ac",
}

_PRESETS = {"table3": (TABLE3_REMY, 10.0), "fig2c": (FIG2C_LONG_RUNNING, 4.0)}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_CUBIC))
def test_cubic_fixed_trajectory_is_pinned(name, seed):
    preset, duration_s = _PRESETS[name]
    result = run_cubic_fixed(PARAMS, preset, seed=seed, duration_s=duration_s)
    assert result.connections > 0
    assert trajectory_digest(result) == GOLDEN_CUBIC[(name, seed)]


GOLDEN_LOSSY = {
    "fig2b": "ea6e6a534ddbf9503534e1bfe52f49ae2303dece47b346c6473f1236c55b04b0",
    "red": "ed573f7c3a8a489686bece4b5607d46fcb31490b2bb66ef9eed944f3e0341deb",
    "remy": "fd219c6eca1ec5bdf19806f8f6196bc3aece2bbd3c28472bd85fb2af62d2ee64",
}


def _red_bottleneck(env):
    """The RED ablation's queue, swapped in before any traffic."""
    buffer_bytes = env.topology.config.buffer_bytes
    red = RedQueue(
        buffer_bytes,
        lambda: env.sim.now,
        np.random.default_rng(1),
        min_thresh_bytes=0.1 * buffer_bytes,
        max_thresh_bytes=0.4 * buffer_bytes,
        max_probability=0.1,
    )
    env.topology.bottleneck.queue = env.topology.bottleneck_queue = red


def _remy_table():
    """``test_competing_remy_senders_share_link``'s one-whisker table."""
    table = WhiskerTable()
    table.whiskers[0].action = Action(
        window_increment=2.0, window_multiple=1.0, intersend_s=0.004
    )
    return table


def _long_running(name, **config):
    return ScenarioPreset(
        name=name, config=DumbbellConfig(**config), workload=None,
        duration_s=10.0, description="a golden's long-running dumbbell",
    )


def _lossy_run(name):
    if name == "fig2b":
        return run_cubic_fixed(
            CubicParams.default(), FIG2B_HIGH_UTILIZATION, seed=1, duration_s=10.0
        )
    if name == "red":
        return run_preset(
            lambda env: partial(CubicSender, params=CubicParams.default()),
            _long_running("golden-red", n_senders=16),
            seed=1, duration_s=6.0, fault_hook=_red_bottleneck,
        )
    return run_preset(
        lambda env: partial(RemySender, table=_remy_table()),
        _long_running("golden-remy", n_senders=4, bottleneck_bandwidth_bps=8e6),
        seed=1, duration_s=10.0,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_LOSSY))
def test_lossy_trajectory_is_pinned(name):
    result = _lossy_run(name)
    assert sum(stats.timeouts for flows in result.per_sender_stats for stats in flows) > 0
    assert trajectory_digest(result) == GOLDEN_LOSSY[name]


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


@pytest.mark.parametrize("seed", sorted(GOLDEN_DEGRADED))
def test_degraded_phi_trajectory_is_pinned(seed):
    run = run_degraded_phi_cubic(
        REFERENCE_POLICY,
        FIG2A_LOW_UTILIZATION,
        unavailability=0.5,
        seed=seed,
        duration_s=12.0,
    )
    assert run.decision_counts["fallback"] > 0
    assert run.fast_failures > 0  # the benched server refused calls
    assert trajectory_digest(run.result) == GOLDEN_DEGRADED[seed]


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
