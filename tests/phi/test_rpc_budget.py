"""The control plane's cost as a count: Python calls into ``repro.phi``
per RPC attempt and per flow.

The paper's protocol is one lookup when a connection starts and one
report when it ends, so on a plane of many short flows those two RPCs
are the path the idea rests on.  A wall-time bound cannot be held on a
shared runner; the number of Python function calls a run makes into
``repro/phi`` is a function of the code and the seed.  An RPC is meant
to cost about one frame per layer it crosses (client, failover, channel,
server: a replica is its server) plus the estimator's own few;
anti-entropy is one pass per replica per merge.  A single-server plane
crosses the same layers, its failover channel over one replica.  The
ceilings are what that design measures plus ~15-20% (3.12 inlines
comprehensions, which only lowers the count); every one is far below
what the plane cost before (57.7 and 60.6 calls per RPC, 115 and 117 per
flow) and under 25 per RPC.  A change that pushes a run over its ceiling
has put a call back on every RPC: find it with ``python -m cProfile -s
ncalls``.

Only ``call`` events are counted, over the whole run with set-up and
every merge; an RPC attempt is one replica asked once (``by_replica``),
and a flow is one connection start (one context decision).
"""

import os
import sys

import pytest

import repro.phi
from repro import telemetry
from repro.experiments import (
    TABLE3_REMY,
    ScenarioPreset,
    run_degraded_phi_cubic,
    run_partitioned_phi_cubic,
)
from repro.phi import REFERENCE_POLICY
from repro.simnet import DumbbellConfig
from repro.workload import OnOffConfig

PHI_DIR = os.path.join(os.path.dirname(os.path.abspath(repro.phi.__file__)), "")

SHORTFLOWS_PRESET = ScenarioPreset(
    name="budget-phi-shortflows",
    config=DumbbellConfig(n_senders=8, rtt_s=0.020),
    workload=OnOffConfig(mean_on_bytes=3000, mean_off_s=0.02, start_jitter_s=0.1),
    duration_s=6.0,
    description="perf's phi_shortflows preset",
)


def partitioned(preset, **knobs):
    """3 replicas, replica 0 cut: failovers and anti-entropy both run."""
    run = run_partitioned_phi_cubic(
        REFERENCE_POLICY, preset, n_replicas=3, severity=0.34, seed=1, **knobs
    )
    assert run.failovers > 0 and run.anti_entropy_merges > 0
    return run


def degraded(preset):
    """The single server down half of every 5 s period: its one-replica
    failover channel benches it and refuses calls in the window."""
    run = run_degraded_phi_cubic(REFERENCE_POLICY, preset, unavailability=0.5, seed=1)
    assert run.fast_failures > 0
    return run


#: perf's ``phi_shortflows``: 8 senders of 3 KB flows for 6 sim-s through
#: 3 replicas, replica 0 cut from 2 s to 4.5 s.
SHORTFLOWS = (partitioned, dict(preset=SHORTFLOWS_PRESET, partition_start_s=2.0, heal_s=2.5))

#: The partitioned-Phi golden point (tests/simnet/test_golden_trajectories.py).
GOLDEN = (
    partitioned,
    dict(preset=TABLE3_REMY, partition_start_s=2.0, heal_s=3.0, duration_s=8.0),
)

#: The same short flows on the single-server plane, under X4's outages.
SHORTFLOWS_DEGRADED = (degraded, dict(preset=SHORTFLOWS_PRESET))


def phi_calls(runner, knobs):
    """(calls per RPC attempt, calls per flow, attempts) of one seeded run."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PHI_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run = runner(**knobs)
    finally:
        sys.setprofile(previous)
    attempts = sum(replica["attempts"] for replica in run.replica_calls.values())
    flows = sum(run.decision_counts.values())
    assert attempts > 100
    return calls / attempts, calls / flows, attempts


@pytest.mark.parametrize(
    "case, per_rpc_ceiling, per_flow_ceiling",
    [
        # Measured when the ceilings were set: 13.1 and 26.3 on the short
        # flows, 16.5 and 31.9 on the golden point (a replica is its
        # server: no frame between channel and server), 17.2 and 25.7 on
        # the degraded short flows (every call crosses the one-replica
        # failover channel; a refused call costs calls but no attempt).
        pytest.param(SHORTFLOWS, 15.3, 30.5, id="phi_shortflows"),
        pytest.param(GOLDEN, 19.2, 37.0, id="golden-partitioned"),
        pytest.param(SHORTFLOWS_DEGRADED, 20.0, 30.0, id="phi_shortflows-degraded"),
    ],
)
def test_phi_calls_per_rpc_and_per_flow(case, per_rpc_ceiling, per_flow_ceiling):
    assert not telemetry.session().enabled
    assert per_rpc_ceiling <= 25.0  # the control plane's target
    per_rpc, per_flow, attempts = phi_calls(*case)
    assert per_rpc <= per_rpc_ceiling, (
        f"{per_rpc:.1f} Python calls into repro/phi per RPC over {attempts} "
        f"attempts, ceiling {per_rpc_ceiling}"
    )
    assert per_flow <= per_flow_ceiling, (
        f"{per_flow:.1f} Python calls into repro/phi per flow, ceiling {per_flow_ceiling}"
    )
