"""The Figure-1 scenario runner.

Everything in the evaluation happens on the dumbbell of Figure 1; this
module builds the environment (topology + instrumentation), drives a
workload over it with pluggable per-sender factories, and summarizes the
outcome.  Benches, tests, and examples all go through these entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from .. import simcheck
from ..metrics.summary import RunMetrics, summarize_connections
from ..simcheck import CheckedSimulator, ViolationReport, checked_factory
from ..simnet.engine import Simulator, SimWatchdog, WatchdogConfig
from ..simnet.monitor import ActiveFlowTracker, LinkMonitor
from ..simnet.packet import FlowIdAllocator
from ..simnet.random import RngStreams
from ..simnet.topology import DumbbellConfig, DumbbellTopology
from ..transport.base import ConnectionStats
from ..workload.longrunning import LongRunningFlow, launch_long_running_flows
from ..workload.onoff import OnOffConfig, OnOffSource, SenderFactory


@dataclass
class ExperimentEnv:
    """A fully-instrumented dumbbell ready to carry a workload."""

    sim: Simulator
    topology: DumbbellTopology
    monitor: LinkMonitor
    flow_tracker: ActiveFlowTracker
    flow_ids: FlowIdAllocator
    rngs: RngStreams
    #: Whether this environment runs with the simcheck invariant layer.
    checked: bool = False
    #: Collects violations instead of raising when set (``repro check``).
    check_report: Optional[ViolationReport] = field(default=None, repr=False)

    @classmethod
    def create(
        cls,
        config: Optional[DumbbellConfig] = None,
        seed: int = 0,
        monitor_period_s: float = 0.1,
        watchdog: Optional[WatchdogConfig] = None,
        checked: Optional[bool] = None,
        check_report: Optional[ViolationReport] = None,
    ) -> "ExperimentEnv":
        """Build the topology and start the bottleneck monitor.

        ``watchdog`` installs a :class:`SimWatchdog` on the fresh
        simulator so a runaway run raises
        :class:`~repro.simnet.engine.SimulationStalled` instead of
        spinning forever; it never alters the trajectory of a run that
        finishes within its budgets.

        ``checked`` builds the environment on a
        :class:`~repro.simcheck.CheckedSimulator` with invariant audits;
        ``None`` (the default) defers to :func:`repro.simcheck.enabled`,
        so ``REPRO_SIMCHECK=1`` flips every scenario in the process into
        checked mode without touching call sites.
        """
        if checked is None:
            checked = simcheck.enabled()
        sim: Simulator
        if checked:
            sim = CheckedSimulator(report=check_report)
        else:
            sim = Simulator()
        if watchdog is not None:
            sim.install_watchdog(SimWatchdog(watchdog))
        topology = DumbbellTopology(sim, config or DumbbellConfig())
        monitor = LinkMonitor(sim, topology.bottleneck, period_s=monitor_period_s)
        monitor.start()
        return cls(
            sim=sim,
            topology=topology,
            monitor=monitor,
            flow_tracker=ActiveFlowTracker(),
            flow_ids=FlowIdAllocator(),
            rngs=RngStreams(seed),
            checked=checked,
            check_report=check_report,
        )

    def wrap_factory(self, factory: SenderFactory) -> SenderFactory:
        """``factory`` with TCP invariant checks when this env is checked."""
        if not self.checked:
            return factory
        return checked_factory(factory, self.check_report)

    def audit(self, faults: Iterable[object] = ()) -> None:
        """Run the conservation audit over the whole topology now.

        Called automatically at the end of checked scenario runs; pass
        the run's fault objects so fault-absorbed packets are credited
        in the wire law.
        """
        simcheck.audit_topology(
            self.topology, self.sim.now, faults, self.check_report
        )

    @property
    def bottleneck_capacity_bps(self) -> float:
        """Capacity of the shared bottleneck."""
        return self.topology.config.bottleneck_bandwidth_bps


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    metrics: RunMetrics
    per_sender_stats: List[List[ConnectionStats]]
    bottleneck_drop_rate: float
    mean_utilization: float
    duration_s: float
    connections: int
    events_processed: int = 0

    def sender_metrics(self, indices: Sequence[int]) -> RunMetrics:
        """Metrics restricted to a subset of sender slots (Figure 4)."""
        stats: List[ConnectionStats] = []
        for index in indices:
            stats.extend(self.per_sender_stats[index])
        return summarize_connections(
            stats,
            bottleneck_loss_rate=self.bottleneck_drop_rate,
            mean_utilization=self.mean_utilization,
        )


FactoryForSlot = Callable[[int, ExperimentEnv], SenderFactory]

#: Long-running scenarios report utilization from here on, so slow-start
#: transients do not dilute the steady-state picture.
LONG_RUNNING_WARMUP_S = 5.0


def run_onoff_scenario(
    factory_for_slot: FactoryForSlot,
    *,
    config: Optional[DumbbellConfig] = None,
    workload: Optional[OnOffConfig] = None,
    duration_s: float = 60.0,
    seed: int = 0,
    watchdog: Optional[WatchdogConfig] = None,
    checked: Optional[bool] = None,
    check_report: Optional[ViolationReport] = None,
    slot_order: Optional[Sequence[int]] = None,
    monitor_period_s: float = 0.1,
    fault_hook: Optional[Callable[["ExperimentEnv"], Iterable[object]]] = None,
) -> ScenarioResult:
    """Run the paper's on/off workload over a fresh dumbbell.

    ``factory_for_slot(index, env)`` supplies each sender slot's transport
    factory, which is how Phi coordination, partial deployment, and plain
    baselines are all expressed.

    ``slot_order`` constructs the per-slot sources in a different order
    (results stay keyed by slot).  Each slot's RNG stream is derived from
    its index, so a permutation changes only event insertion order — the
    flow-permutation metamorphic oracle uses this to demand identical
    results.

    ``fault_hook(env)`` runs after the environment is built and before
    the clock starts; it may schedule data-plane faults on the fresh
    topology and must return the fault objects it created so checked
    runs credit absorbed packets in the conservation audit.
    """
    env = ExperimentEnv.create(
        config,
        seed,
        monitor_period_s=monitor_period_s,
        watchdog=watchdog,
        checked=checked,
        check_report=check_report,
    )
    faults: List[object] = list(fault_hook(env)) if fault_hook is not None else []
    workload = workload or OnOffConfig()
    n_senders = env.topology.config.n_senders
    order = list(range(n_senders)) if slot_order is None else list(slot_order)
    if sorted(order) != list(range(n_senders)):
        raise ValueError(f"slot_order must permute 0..{n_senders - 1}: {order}")
    sources_by_slot: dict = {}
    for index in order:
        factory = env.wrap_factory(factory_for_slot(index, env))
        source = OnOffSource(
            env.sim,
            env.topology.senders[index],
            env.topology.receivers[index],
            factory,
            env.flow_ids,
            env.rngs.stream(f"onoff-{index}"),
            workload,
            flow_tracker=env.flow_tracker,
        )
        source.start()
        sources_by_slot[index] = source
    sources = [sources_by_slot[index] for index in range(n_senders)]

    env.sim.run(until=duration_s)
    for source in sources:
        source.stop()
    if env.checked:
        env.audit(faults)

    per_sender = [src.all_stats() for src in sources]
    return _summarize(env, per_sender, duration_s)


def run_long_running_scenario(
    factory_for_slot: FactoryForSlot,
    *,
    config: Optional[DumbbellConfig] = None,
    duration_s: float = 60.0,
    seed: int = 0,
    watchdog: Optional[WatchdogConfig] = None,
    checked: Optional[bool] = None,
    check_report: Optional[ViolationReport] = None,
    fault_hook: Optional[Callable[["ExperimentEnv"], Iterable[object]]] = None,
) -> ScenarioResult:
    """Run persistent bulk flows (the Figure 2c setting).

    Flows start within the first second; statistics cover the whole run
    but utilization is reported past :data:`LONG_RUNNING_WARMUP_S`.
    ``fault_hook`` behaves as in :func:`run_onoff_scenario`.
    """
    env = ExperimentEnv.create(
        config,
        seed,
        watchdog=watchdog,
        checked=checked,
        check_report=check_report,
    )
    faults: List[object] = list(fault_hook(env)) if fault_hook is not None else []
    n = env.topology.config.n_senders
    flows: List[LongRunningFlow] = []
    for index in range(n):
        factory = env.wrap_factory(factory_for_slot(index, env))
        flows.extend(
            launch_long_running_flows(
                env.sim,
                [(env.topology.senders[index], env.topology.receivers[index])],
                factory,
                env.flow_ids,
                env.rngs.stream(f"lr-{index}"),
                flow_tracker=env.flow_tracker,
            )
        )
    env.sim.run(until=duration_s)
    if env.checked:
        env.audit(faults)
    per_sender = [[flow.finish()] for flow in flows]
    result = _summarize(env, per_sender, duration_s)
    # Recompute utilization excluding warm-up.
    post_warmup = env.monitor.mean_utilization(since=LONG_RUNNING_WARMUP_S)
    result.mean_utilization = post_warmup
    result.metrics = RunMetrics(
        throughput_mbps=result.metrics.throughput_mbps,
        queueing_delay_ms=result.metrics.queueing_delay_ms,
        loss_rate=result.metrics.loss_rate,
        connections=result.metrics.connections,
        total_bytes=result.metrics.total_bytes,
        mean_rtt_ms=result.metrics.mean_rtt_ms,
        mean_utilization=post_warmup,
    )
    return result


def _summarize(
    env: ExperimentEnv,
    per_sender: List[List[ConnectionStats]],
    duration_s: float,
) -> ScenarioResult:
    all_stats = [s for sender in per_sender for s in sender]
    drop_rate = env.topology.bottleneck_queue.stats.drop_rate()
    utilization = env.monitor.mean_utilization()
    metrics = summarize_connections(
        all_stats,
        bottleneck_loss_rate=drop_rate,
        mean_utilization=utilization,
    )
    return ScenarioResult(
        metrics=metrics,
        per_sender_stats=per_sender,
        bottleneck_drop_rate=drop_rate,
        mean_utilization=utilization,
        duration_s=duration_s,
        connections=len(all_stats),
        events_processed=env.sim.events_processed,
    )


def uniform_slots(factory_builder: Callable[[ExperimentEnv], SenderFactory]) -> FactoryForSlot:
    """All sender slots share one factory built once per environment.

    The builder is invoked once per run (memoized on the env) so wrappers
    that carry state — e.g. a Phi context server — are shared by all
    senders of the run, as they should be.
    """
    cache: dict = {}

    def for_slot(index: int, env: ExperimentEnv) -> SenderFactory:
        key = id(env)
        if key not in cache:
            cache.clear()  # only ever one live env per runner call
            cache[key] = factory_builder(env)
        return cache[key]

    return for_slot
