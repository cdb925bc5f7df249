"""Practical Phi is the resilient plane over a channel that never fails.

Every Phi run builds its control plane from one ``PlaneSpec``, so the
deployable protocol (look up at start, report at end) has no direct path
of its own any more.  The reference kept here is that direct path: a
test-local factory whose senders read a bare ``ContextServer``.  A
healthy plane in each of its wirings must run *exactly* that trajectory
— metrics, every flow's stats and the event count — because the
channel's latency is bookkeeping and its jitters draw only on failure
paths.
"""

import pytest

from repro.experiments import (
    TABLE3_REMY,
    run_degraded_phi_cubic,
    run_partitioned_phi_cubic,
    run_phi_cubic,
    run_poisoned_phi_cubic,
    run_preset,
    run_remy_scenario,
)
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import REFERENCE_POLICY, ConnectionReport, ContextServer, SharingMode
from repro.remy import Action, WhiskerTable
from repro.simnet import DumbbellConfig
from repro.transport import CubicSender, RemySender
from repro.workload import OnOffConfig

pytestmark = pytest.mark.partition

PRESET = ScenarioPreset(
    name="plane-identity",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=0.5),
    duration_s=10.0,
    description="small healthy-plane identity scenario",
)
SEED = 3


def direct_senders(policy=None, table=None):
    """Senders that look up and report straight to one bare ContextServer:
    policy-keyed Cubic, or Remy on the looked-up ``u``."""

    def senders(env):
        server = ContextServer(env.sim, env.bottleneck_capacity_bps)

        def factory(sim, host, spec, flow_size_bytes, on_complete):
            context = server.lookup()

            def report_and_complete(sender):
                server.report(ConnectionReport.from_stats(sender.stats, sim.now))
                on_complete(sender)

            if table is None:
                params = policy.params_for(context)
                return CubicSender(
                    sim, host, spec, flow_size_bytes, report_and_complete, params=params
                )
            frozen = context.utilization
            return RemySender(
                sim, host, spec, flow_size_bytes, report_and_complete,
                table=table, util_provider=lambda: frozen,
            )

        return factory

    return senders


def assert_same_run(run, reference):
    assert run.metrics == reference.metrics
    assert run.per_sender_stats == reference.per_sender_stats
    assert run.events_processed == reference.events_processed


@pytest.mark.parametrize(
    "healthy_plane",
    [
        lambda: run_phi_cubic(REFERENCE_POLICY, PRESET, SharingMode.PRACTICAL, seed=SEED),
        lambda: run_degraded_phi_cubic(
            REFERENCE_POLICY, PRESET, unavailability=0.0, seed=SEED
        ).result,
        lambda: run_poisoned_phi_cubic(
            REFERENCE_POLICY, PRESET, severity=0.0, guarded=False, seed=SEED
        ).result,
        lambda: run_partitioned_phi_cubic(
            REFERENCE_POLICY, PRESET, n_replicas=1, severity=0.0, seed=SEED
        ).result,
    ],
    ids=["practical", "x4-unavailability-0", "x6-unguarded-severity-0", "x7-one-replica"],
)
def test_healthy_plane_is_the_direct_path(healthy_plane):
    reference = run_preset(direct_senders(policy=REFERENCE_POLICY), PRESET, seed=SEED)
    assert reference.connections > 0
    assert_same_run(healthy_plane(), reference)


def test_remy_practical_is_the_direct_path():
    # A different action per util band, so the frozen u steers senders.
    table = WhiskerTable.partitioned(WhiskerTable.PHI_DIMENSIONS, "util", n_parts=4)
    for band, whisker in enumerate(table.whiskers):
        whisker.action = Action(window_increment=1.0 + band, intersend_s=0.002 * (1 + band))
    reference = run_preset(direct_senders(table=table), TABLE3_REMY, seed=SEED, duration_s=8.0)
    run = run_remy_scenario(table, SharingMode.PRACTICAL, TABLE3_REMY, seed=SEED, duration_s=8.0)
    assert reference.connections > 0
    assert_same_run(run, reference)
