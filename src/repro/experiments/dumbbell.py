"""The Figure-1 scenario runner.

Everything in the evaluation happens on the dumbbell of Figure 1; this
module builds the environment (topology + instrumentation), drives a
preset's workload over it with the run's sender factories, and
summarizes the outcome.  :func:`run_preset` is the one runner every
bench, test and example goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Union

from .. import simcheck
from ..metrics.summary import RunMetrics, summarize_connections
from ..simcheck import CheckedSimulator, ViolationReport, checked_factory
from ..simnet.engine import Simulator, SimWatchdog, WatchdogConfig
from ..simnet.monitor import ActiveFlowTracker, LinkMonitor
from ..simnet.packet import FlowIdAllocator
from ..simnet.random import RngStreams
from ..simnet.topology import DumbbellConfig, DumbbellTopology
from ..transport.base import ConnectionStats
from ..workload.longrunning import launch_long_running_flows
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

    def now(self) -> float:
        """The run's simulation clock, for the components that take one."""
        return self.sim.now

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


@dataclass(frozen=True)
class ScenarioPreset:
    """A (topology, workload, duration) bundle from the paper.

    ``workload=None`` is the long-running setting: one persistent flow
    per sender slot (Figure 2c).
    """

    name: str
    config: DumbbellConfig
    workload: Optional[OnOffConfig]
    duration_s: float
    description: str


#: What a run's senders are: ``senders(env)`` returns one
#: :class:`SenderFactory` for every slot, or a list with one per slot.
Senders = Callable[[ExperimentEnv], Union[SenderFactory, Sequence[SenderFactory]]]

#: Long-running scenarios report utilization from here on, so slow-start
#: transients do not dilute the steady-state picture.
LONG_RUNNING_WARMUP_S = 5.0


def run_preset(
    senders: Senders,
    preset: ScenarioPreset,
    *,
    seed: int = 0,
    duration_s: Optional[float] = None,
    watchdog: Optional[WatchdogConfig] = None,
    checked: Optional[bool] = None,
    check_report: Optional[ViolationReport] = None,
    slot_order: Optional[Sequence[int]] = None,
    monitor_period_s: float = 0.1,
    fault_hook: Optional[Callable[[ExperimentEnv], Iterable[object]]] = None,
) -> ScenarioResult:
    """Run ``preset`` over a fresh dumbbell: the one scenario runner.

    ``senders(env)`` is called once, before any flow starts, and returns
    one sender factory for all slots or a list with one per slot; a
    sender class such as ``CubicSender`` is itself a factory.  State the
    factory carries (a Phi context server) is thus shared by the run.
    ``duration_s=None`` keeps the preset's own duration.

    ``fault_hook(env)`` runs after the environment is built and before
    ``senders``; it may schedule data-plane faults on the fresh topology
    and must return the fault objects it created so checked runs credit
    absorbed packets in the conservation audit.  ``watchdog`` bounds the
    run's event/wall budgets (see
    :class:`~repro.simnet.engine.SimWatchdog`); ``checked`` and
    ``check_report`` feed the simcheck invariant layer (see
    :mod:`repro.simcheck`).

    On/off presets start one source per slot; ``slot_order`` constructs
    them in another order (results stay keyed by slot).  Each slot's RNG
    stream is derived from its index, so a permutation changes only
    event insertion order -- the flow-permutation oracle demands
    identical results.  Long-running presets start one persistent flow
    per slot (flow ids follow slot order, so ``slot_order`` is refused)
    and report utilization past :data:`LONG_RUNNING_WARMUP_S`.
    """
    n_senders = preset.config.n_senders
    long_running = preset.workload is None
    order = list(range(n_senders)) if slot_order is None else list(slot_order)
    if long_running and slot_order is not None:
        raise ValueError("slot_order applies to on/off workloads only")
    if sorted(order) != list(range(n_senders)):
        raise ValueError(f"slot_order must permute 0..{n_senders - 1}: {order}")
    duration = preset.duration_s if duration_s is None else duration_s

    env = ExperimentEnv.create(
        preset.config,
        seed,
        monitor_period_s=monitor_period_s,
        watchdog=watchdog,
        checked=checked,
        check_report=check_report,
    )
    faults: List[object] = list(fault_hook(env)) if fault_hook is not None else []
    built = senders(env)
    factories = [built] * n_senders if callable(built) else list(built)
    if len(factories) != n_senders:
        raise ValueError(f"{len(factories)} sender factories for {n_senders} slots")

    slots: dict = {}
    for index in order:
        factory = env.wrap_factory(factories[index])
        hosts = (env.topology.senders[index], env.topology.receivers[index])
        if long_running:
            (slots[index],) = launch_long_running_flows(
                env.sim,
                [hosts],
                factory,
                env.flow_ids,
                env.rngs.stream(f"lr-{index}"),
                flow_tracker=env.flow_tracker,
            )
        else:
            slots[index] = OnOffSource(
                env.sim,
                *hosts,
                factory,
                env.flow_ids,
                env.rngs.stream(f"onoff-{index}"),
                preset.workload,
                flow_tracker=env.flow_tracker,
            )
            slots[index].start()

    env.sim.run(until=duration)
    per_sender: List[List[ConnectionStats]] = []
    for index in range(n_senders):
        slot = slots[index]
        if long_running:
            per_sender.append([slot.finish()])
        else:
            slot.stop()
            per_sender.append(slot.all_stats())
    if env.checked:
        env.audit(faults)

    all_stats = [s for sender in per_sender for s in sender]
    drop_rate = env.topology.bottleneck_queue.stats.drop_rate()
    utilization = env.monitor.mean_utilization(
        since=LONG_RUNNING_WARMUP_S if long_running else 0.0
    )
    return ScenarioResult(
        metrics=summarize_connections(
            all_stats,
            bottleneck_loss_rate=drop_rate,
            mean_utilization=utilization,
        ),
        per_sender_stats=per_sender,
        bottleneck_drop_rate=drop_rate,
        mean_utilization=utilization,
        duration_s=duration,
        connections=len(all_stats),
        events_processed=env.sim.events_processed,
    )
