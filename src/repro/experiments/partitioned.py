"""Partitioned-control-plane experiments: Phi on a replicated plane.

X4 asks "what if the one context server fails?" and X6 "what if it
lies?".  This module asks the remaining question — the X7 sweep: **what
if the control plane is replicated and the network partitions it?**
Senders run the one Phi plane (:mod:`repro.phi.plane`) with a
replicated server:

    sender → ResilientContextClient → FailoverChannel
           → per-replica ControlChannel → ContextServer (the replica)

Every call's outcome travels up as an :class:`~repro.phi.channel.RpcResult`:
a replica that cannot serve (down or cut off) is a non-OK status the
failover channel moves past and, once every replica has failed, the
client degrades on.  Nothing is raised between the layers.

An :class:`~repro.simnet.faults.Outage` severs, for a window,
both the sender↔replica channels of a *cut* replica subset and the
replica↔replica anti-entropy edges across the cut.  The cut always
contains the clients' initially-sticky replica (replica 0), so minority
partitions genuinely exercise failover rather than hitting replicas
nobody talks to.

The claim under test mirrors X6's safety envelope, on both axes:

- with ≥ 2 replicas, any single-replica crash or **minority** partition
  keeps mean power and throughput at or above the single-server-outage
  degraded baseline (one server lost for the same window) —
  replication turns an outage into a non-event;
- **no** partition severity, up to losing every replica, drops a run
  below the uncoordinated stock-Cubic floor — the anchor X4 establishes
  on power, held here on both axes.

The degraded baseline is produced by this very machinery at
``n_replicas=1, severity=1`` (one replica, fully cut for the same
window): structurally X4's single-server outage, through an
identical code path, so the comparison isolates exactly the value of
replication.  The replication oracle
(:mod:`repro.simcheck.oracles`) separately pins that the N=1 stack is
bit-identical to the plain single-server stack, under X4's outages as
well as without them: both run the one failover channel.

A calibration caveat on the degraded floor: it is only a meaningful
bar when ``partition_start_s`` is past the context warm-up (at least
the staleness TTL into the run).  Freeze the cache *earlier* and the
degraded baseline coasts on an optimistic warm-up snapshot — low
estimated utilization, aggressive parameters — and can transiently
beat even the healthy plane, which says something about stale context,
not about replication.  The defaults (start 10 s, TTL 10 s) respect
this.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..metrics.summary import RunMetrics
from ..phi.plane import PlaneRunResult, PlaneSpec
from ..phi.policy import PolicyTable
from ..phi.replication import ReplicationConfig
from .dumbbell import ScenarioPreset
from .faultsweep import (
    LEASE_TTL_S,
    Baseline,
    FaultScenario,
    FaultSpec,
    FaultSweepRow,
    Floor,
    merged_counts,
    peak,
    stock_cubic,
)
from .scenarios import run_plane


def run_partitioned_phi_cubic(
    policy: PolicyTable,
    preset: ScenarioPreset,
    *,
    n_replicas: int = 3,
    severity: float = 0.0,
    heal_s: float = 10.0,
    partition_start_s: float = 10.0,
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> PlaneRunResult:
    """Phi-coordinated Cubic on a replicated, partitionable control plane.

    An :class:`~repro.simnet.faults.Outage` severs the first
    ``round(severity * n_replicas)`` replicas — their sender↔replica
    channels are marked down and their anti-entropy edges to the kept
    replicas are cut — during ``[partition_start_s, partition_start_s +
    heal_s)``.  ``severity=0`` (or ``heal_s=0``) is the no-fault
    replicated deployment; ``severity=1`` cuts every replica, leaving
    clients on the stale-then-fallback path exactly as a total
    control-plane outage would.

    The plane arms the failover's reproducibility-preserving suspension
    jitter from a per-run seeded stream; it draws only on failure paths,
    so a no-fault run's trajectory is unchanged by it.
    """
    replication = ReplicationConfig(n_replicas=n_replicas)
    spec = PlaneSpec(
        policy=policy,
        lease_ttl_s=LEASE_TTL_S,
        severity=severity,
        replication=replication,
        partition_start_s=partition_start_s,
        heal_s=heal_s,
    )
    return run_plane(spec, preset, seed=seed, duration_s=duration_s)


# ----------------------------------------------------------------------
# The X7 sweep: replica count x severity x heal time, as a declaration
# over the fault-sweep harness
# ----------------------------------------------------------------------
def _single_server_outage(
    spec: FaultSpec, axes: Mapping[str, Any], seed: int
) -> RunMetrics:
    """The degraded baseline: one replica, fully cut for the
    row's heal window, through the very machinery under test."""
    return run_partitioned_phi_cubic(
        spec.policy,
        spec.preset,
        n_replicas=1,
        severity=1.0,
        heal_s=axes["heal_s"],
        seed=seed,
        duration_s=spec.duration_s,
        **spec.fixed,
    ).metrics


def is_minority_cut(row: FaultSweepRow) -> bool:
    """Whether the row's partition cut a strict minority of its replicas
    (which takes at least three of them)."""
    n_cut = row.accounting["n_cut"]
    return 0 < n_cut and 2 * n_cut < row.axes["n_replicas"]


PARTITION = FaultScenario(
    name="partition",
    grid={"n_replicas": (1, 3), "severity": (0.0, 0.34, 1.0), "heal_s": (10.0,)},
    run=run_partitioned_phi_cubic,
    accounting={
        "n_cut": peak,  # a function of the axes: constant across seeds
        "decision_counts": merged_counts,
        "failovers": sum,
        "fast_failures": sum,
        "anti_entropy_merges": sum,
        "reports_replicated": sum,
        "final_divergence": peak,
        "max_divergence": peak,
        "pending_reports": sum,
    },
    cell_format="replicas={n_replicas} severity={severity:g} heal={heal_s:g}s",
    baselines=(
        Baseline("stock", stock_cubic, tables={"stock_power_by_seed": "power_l"}),
        Baseline(
            "degraded",
            _single_server_outage,
            per=("heal_s",),
            tables={"degraded_power_by_heal_seed": "power_l"},
        ),
    ),
    floors=(
        Floor("stock", "stock floor"),
        Floor("degraded", "degraded floor", applies=is_minority_cut),
    ),
)

