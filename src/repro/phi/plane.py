"""One Phi control plane, built from one :class:`PlaneSpec`.

The paper's deployable Phi (Section 2.2.2) is one protocol: "each sender
would look up the context server once when a new connection starts ...
and would report back to the context server once the connection ends".
A sender that cannot use the context must fail safe and start with stock
parameters (TCPTuner: acting on bad parameters is worse than the
defaults).  Every Phi run puts that protocol on its senders through one
:class:`Plane`::

    sender -> ResilientContextClient -> [FailoverChannel]
           -> ControlChannel (one per replica)
           -> ContextServer | IdealContextOracle | ReplicatedContextService

The channel's latency is simulated bookkeeping and its jitters draw only
on failure paths, so a plane that never fails runs bit-identically to
senders that read the server directly: practical Phi *is* this stack at
no fault, and ideal Phi is the same stack over the ground-truth oracle.
Each fault experiment turns one dial of the spec: scheduled outages
(X4), corrupted payloads against the guard and trust defences (X6), a
replicated server and a partition across it (X7).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from ..remy.whisker import WhiskerTable
from ..simnet.faults import Outage
from .channel import ChannelConfig, ChannelStats, CircuitBreaker, ControlChannel
from .corruption import ByzantineReporter, CorruptionLayer, make_context_corruptor
from .failover import FailoverChannel, FailoverStats
from .fallback import ResilientContextClient
from .guard import ContextGuard, GuardConfig
from .policy import PolicyTable
from .replication import ReplicatedContextService, ReplicationConfig
from .server import ContextServer, IdealContextOracle, RobustAggregationConfig
from .trust import TrustTracker

if TYPE_CHECKING:  # the experiment layer imports this module, not the reverse
    from ..experiments.dumbbell import ExperimentEnv, ScenarioResult
    from ..metrics.summary import RunMetrics


class SharingMode(Enum):
    """How fresh the shared context each sender sees is."""

    #: Up-to-the-minute ground truth on every observation (upper bound).
    IDEAL = "ideal"
    #: Snapshot at connection start, report at connection end (deployable).
    PRACTICAL = "practical"
    #: No sharing at all (the status quo baseline): plain senders, no plane.
    NONE = "none"


@dataclass(frozen=True)
class PlaneSpec:
    """What one run's control plane is.  Frozen and picklable, so a fault
    sweep can hand it to worker processes.

    Senders: exactly one of ``policy`` (Cubic, parameters keyed by the
    context) and ``table`` (Remy on the context's ``u``; on the oracle's
    live ``u`` under IDEAL).  ``mode`` picks the backend: PRACTICAL is a
    :class:`ContextServer` (``window_s``, ``lease_ttl_s``), IDEAL the
    :class:`IdealContextOracle`.  Every sender shares one
    :class:`ResilientContextClient` (``staleness_ttl_s``) over control
    channels built from ``channel_config``.  The fault dials, all off by
    default:

    - X4: ``unavailability`` of the run spent in outage windows spread
      over ``outage_period_s`` periods, on every channel;
    - X6: each lookup corrupted with probability ``severity`` over the
      corruption ``modes``, each report poisoned with probability
      ``byzantine_fraction``; ``guarded`` arms robust aggregation (or
      ``robust``), a :class:`ContextGuard` and a trust tracker (``trust``,
      else a fresh one);
    - X7: ``replication`` runs a :class:`ReplicatedContextService` with a
      channel per replica behind a :class:`FailoverChannel`; ``severity``
      is then the share of replicas cut from the rest, for ``heal_s``
      from ``partition_start_s``.
    """

    policy: Optional[PolicyTable] = None
    table: Optional[WhiskerTable] = None
    mode: SharingMode = SharingMode.PRACTICAL
    window_s: float = 10.0
    lease_ttl_s: Optional[float] = 300.0
    staleness_ttl_s: float = 10.0
    channel_config: Optional[ChannelConfig] = None
    unavailability: float = 0.0
    outage_period_s: float = 5.0
    severity: float = 0.0
    modes: Tuple[str, ...] = ()
    byzantine_fraction: float = 0.0
    guarded: bool = False
    robust: Optional[RobustAggregationConfig] = None
    trust: Optional[TrustTracker] = None
    replication: Optional[ReplicationConfig] = None
    partition_start_s: float = 10.0
    heal_s: float = 10.0

    def __post_init__(self) -> None:
        # Every check is one a NaN fails: a NaN would switch its dial off.
        if (self.policy is None) == (self.table is None):
            raise ValueError("a plane's senders need a policy (Cubic) or a table (Remy)")
        if self.mode is SharingMode.NONE:
            raise ValueError(f"{self.mode} shares no context: run plain senders instead")
        for name in ("unavailability", "severity", "byzantine_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        for name in ("staleness_ttl_s", "partition_start_s", "heal_s"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0: {value}")
        for name in ("window_s", "outage_period_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive: {value}")
        if self.lease_ttl_s is not None and not self.lease_ttl_s > 0:
            raise ValueError(f"lease_ttl_s must be positive: {self.lease_ttl_s}")
        if self.replication is not None:
            if self.mode is SharingMode.IDEAL:
                raise ValueError("the ideal oracle is not replicated")
            if self.modes or self.byzantine_fraction:
                raise ValueError("a replicated plane's severity is its cut, not lies")


def experiment_channel(
    env: "ExperimentEnv",
    backend,
    config: ChannelConfig,
    *,
    stream: str = "control-channel",
    corruption: Optional[CorruptionLayer] = None,
) -> ControlChannel:
    """The control channel every plane puts before a backend.

    Loss and jitter draw on the run's seeded ``stream``, made only when
    ``config`` needs one.  A breaker whose cool-down dwarfs the outage
    cadence would stay open through entire recovery windows, so the
    reset is kept short relative to the injected outage period.
    """
    return ControlChannel(
        env.sim,
        backend,
        config=config,
        rng=env.rngs.stream(stream) if config.needs_rng else None,
        breaker=CircuitBreaker(env.now, failure_threshold=5, reset_timeout_s=1.0),
        corruption=corruption,
    )


def schedule_unavailability(
    channel: ControlChannel,
    *,
    fraction: float,
    duration_s: float,
    period_s: float = 5.0,
) -> None:
    """Spread outage windows covering ``fraction`` of ``[0, duration_s]``.

    The run is cut into ``period_s`` periods; the server is down for the
    first ``fraction`` of each, so unavailability is evenly distributed
    rather than one lump (senders see repeated partitions, exercising
    cache staleness and recovery every period).  ``fraction == 1`` is one
    outage covering the whole run, and so is each period's share of an
    infinite ``period_s``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    if not period_s > 0:  # NaN too: a NaN window schedules no outage
        raise ValueError(f"period_s must be positive: {period_s}")
    if fraction == 0.0:
        return
    if fraction >= 1.0:
        Outage(channel.sim, 0.0, duration_s, targets=[channel])
        return
    start = 0.0
    while start < duration_s:
        window = min(period_s, duration_s - start)
        down = fraction * window
        if down > 0:
            Outage(channel.sim, start, down, targets=[channel])
        start += period_s


def partition_indices(n_replicas: int, severity: float) -> Tuple[List[int], List[int]]:
    """Split replica indices into (cut, kept) for a severity in [0, 1].

    ``round(severity * n_replicas)`` replicas are cut, *lowest indices
    first* — replica 0 is every client's initial sticky choice, so any
    nonzero cut dislodges the replica actually serving traffic.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1: {n_replicas}")
    if not 0.0 <= severity <= 1.0:
        raise ValueError(f"severity must be in [0, 1]: {severity}")
    n_cut = min(n_replicas, round(severity * n_replicas))
    return list(range(n_cut)), list(range(n_cut, n_replicas))


@dataclass
class PlaneRunResult:
    """One run on a Phi plane plus every plane layer's own accounting.

    Fields of a layer the plane did not build read as that layer idle:
    no rejections, full trust, no failovers, no divergence.
    """

    result: "ScenarioResult"
    decision_counts: Dict[str, int]
    pending_reports: int
    #: The stats of the channel the client calls: the one
    #: :class:`ControlChannel`, or the :class:`FailoverChannel`.
    channel_stats: Union[ChannelStats, FailoverStats]
    fast_failures: int
    guard_rejections: Dict[str, int]
    reports_rejected: int
    contexts_corrupted: int
    reports_poisoned: int
    trust_score: float
    distrust_entries: int
    n_cut: int
    failovers: int
    replica_calls: Dict[int, Dict[str, int]]
    anti_entropy_merges: int
    reports_replicated: int
    quorum_rejections: int
    final_divergence: float
    max_divergence: float

    @property
    def metrics(self) -> "RunMetrics":
        """The run's aggregate transport metrics."""
        return self.result.metrics


class Plane:
    """One run's control plane, built on a fresh environment before any
    flow starts; :attr:`factory` is every sender slot's factory."""

    def __init__(self, spec: PlaneSpec, env: "ExperimentEnv", duration_s: float) -> None:
        sim = env.sim
        config = spec.channel_config or ChannelConfig()
        robust = (spec.robust or RobustAggregationConfig()) if spec.guarded else spec.robust
        self.service: Optional[ReplicatedContextService] = None
        self.failover: Optional[FailoverChannel] = None
        self.layer: Optional[CorruptionLayer] = None
        self.servers: List[ContextServer] = []
        self.n_cut = 0
        live_utilization = None
        if spec.replication is not None:
            self.service = service = ReplicatedContextService(
                sim,
                env.bottleneck_capacity_bps,
                config=spec.replication,
                window_s=spec.window_s,
                lease_ttl_s=spec.lease_ttl_s,
                robust=robust,
            )
            self.servers = service.servers
            channels = [
                experiment_channel(
                    env, service.handle(index), config, stream=f"control-channel-{index}"
                )
                for index in range(service.n_replicas)
            ]
            source: Any = FailoverChannel(
                sim, channels, rng=env.rngs.stream("failover-suspend")
            )
            self.failover = source
            cut, kept = partition_indices(service.n_replicas, spec.severity)
            self.n_cut = len(cut)
            if cut and spec.heal_s > 0:
                edges = [(i, j) for i in cut for j in kept]
                Outage(
                    sim,
                    spec.partition_start_s,
                    spec.heal_s,
                    targets=[channels[i] for i in cut],
                    mesh=service if edges else None,
                    edges=edges,
                )
        else:
            if spec.mode is SharingMode.IDEAL:
                backend: Any = IdealContextOracle(sim, env.monitor, env.flow_tracker)
                if spec.table is not None:
                    live_utilization = backend.utilization_provider()
            else:
                backend = ContextServer(
                    sim,
                    env.bottleneck_capacity_bps,
                    window_s=spec.window_s,
                    lease_ttl_s=spec.lease_ttl_s,
                    robust=robust,
                )
                self.servers = [backend]
            self.layer = _corruption_layer(spec, env)
            source = experiment_channel(env, backend, config, corruption=self.layer)
            channels = [source]
        for channel in channels:
            schedule_unavailability(
                channel,
                fraction=spec.unavailability,
                duration_s=duration_s,
                period_s=spec.outage_period_s,
            )
        self.guard = self.trust = None
        if spec.guarded:
            self.guard = ContextGuard(
                GuardConfig(capacity_mbps=env.bottleneck_capacity_bps / 1e6), now=env.now
            )
            self.trust = spec.trust or TrustTracker()
        self.source = source
        self.client = ResilientContextClient(
            source,
            now=env.now,
            staleness_ttl_s=spec.staleness_ttl_s,
            guard=self.guard,
            trust=self.trust,
        )
        self.factory = self.client.sender_factory(
            spec.policy, spec.table, live_utilization=live_utilization
        )

    def outcome(self, result: "ScenarioResult") -> PlaneRunResult:
        """``result`` with the plane's accounting at the end of the run."""
        client, service, failover = self.client, self.service, self.failover
        layer, trust = self.layer, self.trust
        history = service.divergence_history if service is not None else ()
        return PlaneRunResult(
            result=result,
            decision_counts=client.decision_counts(),
            pending_reports=client.pending_reports,
            channel_stats=self.source.stats,
            fast_failures=self.source.stats.fast_failures,
            guard_rejections=self.guard.rejection_counts() if self.guard else {},
            reports_rejected=sum(server.reports_rejected for server in self.servers),
            contexts_corrupted=layer.contexts_corrupted if layer else 0,
            reports_poisoned=layer.reports_poisoned if layer else 0,
            trust_score=trust.score if trust else 1.0,
            distrust_entries=trust.distrust_entries if trust else 0,
            n_cut=self.n_cut,
            failovers=failover.stats.failovers if failover else 0,
            replica_calls=failover.stats.by_replica if failover else {},
            anti_entropy_merges=service.anti_entropy_merges if service else 0,
            reports_replicated=service.reports_replicated if service else 0,
            quorum_rejections=service.quorum_rejections if service else 0,
            final_divergence=service.replica_divergence() if service else 0.0,
            max_divergence=max((d for _, d in history), default=0.0),
        )


def _corruption_layer(spec: PlaneSpec, env: "ExperimentEnv") -> Optional[CorruptionLayer]:
    """The X6 payload faults, or None when the spec tells no lies.

    Each side draws on its own seeded stream, so a point's poison trace
    is a function of its seed alone."""
    corruptor = reporter = None
    if spec.severity > 0:
        corruptor = make_context_corruptor(
            spec.modes, env.rngs.stream("context-corruption"), spec.severity
        )
    if spec.byzantine_fraction > 0:
        reporter = ByzantineReporter(
            env.rngs.stream("byzantine-reports"), spec.byzantine_fraction
        )
    if corruptor is None and reporter is None:
        return None
    return CorruptionLayer(context_corruptor=corruptor, report_corruptor=reporter)
