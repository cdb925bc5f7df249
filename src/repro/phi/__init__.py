"""Phi: information sharing and coordination for the "five computers".

The paper's contribution.  Senders of a single large entity share their
network experience through a :class:`ContextServer` (or, as an upper
bound, an :class:`IdealContextOracle`), obtain a congestion-context
snapshot (u, q, n) when starting a connection, and key a
:class:`PolicyTable` of sweep-derived optimal TCP parameters with it.
Every Phi run builds that control plane from one :class:`PlaneSpec`
(:mod:`repro.phi.plane`).
"""

from .aggregation import (
    Aggregator,
    SecureCongestionAggregation,
    make_shares,
)
from .context import (
    FAIR_SHARE_THRESHOLDS_MBPS,
    QUEUE_DELAY_THRESHOLDS,
    UTILIZATION_THRESHOLDS,
    CongestionContext,
    CongestionLevel,
)
from .channel import (
    ChannelConfig,
    ControlChannel,
    RpcResult,
    RpcStatus,
)
from .corruption import (
    CONTEXT_CORRUPTION_MODES,
    ByzantineReporter,
    CompositeCorruptor,
    ContextCorruptor,
    CorruptionLayer,
    make_context_corruptor,
)
from .failover import (
    FailoverChannel,
    FailoverConfig,
    FailoverStats,
    ReplicaHealth,
)
from .fallback import (
    ContextDecision,
    ResilientContextClient,
    ResolvedContext,
)
from .plane import Plane, PlaneRunResult, PlaneSpec, SharingMode
from .replication import (
    ReplicaHandle,
    ReplicatedContextService,
    ReplicationConfig,
)
from .guard import (
    GUARD_REASONS,
    ContextGuard,
    GuardVerdict,
)
from .trust import (
    LOSS_RATE_THRESHOLDS,
    TrustTracker,
    observed_level,
    observed_level_from_stats,
)
from .deployment import (
    SenderAssignment,
    deployment_factories,
    split_stats,
)
from .optimizer import (
    CUBIC_SWEEP_GRID,
    LeaveOneOutRecord,
    SweepResult,
    build_policy,
    leave_one_out,
    select_optimal,
)
from .policy import REFERENCE_POLICY, PolicyTable
from .server import (
    ConnectionReport,
    ContextServer,
    IdealContextOracle,
    report_invalid_reason,
)

__all__ = [
    "Aggregator",
    "ByzantineReporter",
    "CONTEXT_CORRUPTION_MODES",
    "CUBIC_SWEEP_GRID",
    "ChannelConfig",
    "CompositeCorruptor",
    "ContextCorruptor",
    "ContextDecision",
    "ContextGuard",
    "ControlChannel",
    "CorruptionLayer",
    "FailoverChannel",
    "FailoverConfig",
    "FailoverStats",
    "GUARD_REASONS",
    "GuardVerdict",
    "ReplicaHandle",
    "ReplicaHealth",
    "ReplicatedContextService",
    "ReplicationConfig",
    "LOSS_RATE_THRESHOLDS",
    "TrustTracker",
    "FAIR_SHARE_THRESHOLDS_MBPS",
    "QUEUE_DELAY_THRESHOLDS",
    "ResilientContextClient",
    "ResolvedContext",
    "RpcResult",
    "RpcStatus",
    "SecureCongestionAggregation",
    "make_shares",
    "REFERENCE_POLICY",
    "UTILIZATION_THRESHOLDS",
    "CongestionContext",
    "CongestionLevel",
    "ConnectionReport",
    "ContextServer",
    "IdealContextOracle",
    "LeaveOneOutRecord",
    "Plane",
    "PlaneRunResult",
    "PlaneSpec",
    "PolicyTable",
    "SenderAssignment",
    "SharingMode",
    "SweepResult",
    "build_policy",
    "deployment_factories",
    "leave_one_out",
    "make_context_corruptor",
    "observed_level",
    "observed_level_from_stats",
    "report_invalid_reason",
    "select_optimal",
    "split_stats",
]
