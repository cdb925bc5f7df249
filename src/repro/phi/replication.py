"""A replicated Phi control plane: N context servers with anti-entropy.

The paper's context server is "a repository of shared state ... within a
domain"; this module makes that server a small distributed system.  A
:class:`ReplicatedContextService` runs ``n_replicas`` independent
:class:`~repro.phi.server.ContextServer` instances, each with its own
report window and lease table, and reconciles them with a periodic,
deterministic, sim-time-scheduled **anti-entropy merge**:

- the union of every replica's in-window connection reports is replayed
  (in a canonical order) into the replicas that missed them, via
  :meth:`ContextServer.absorb` — no lease side effects, window expiry
  preserved;
- lease tables are reconciled from per-replica issue/release logs: a
  lease is outstanding when *someone* issued it, *nobody* released it,
  and it has not TTL-expired; every replica's server is rewritten to the
  merged outstanding set.

Replica↔replica connectivity is an explicit mesh (:meth:`sever` /
:meth:`heal`, driven by :class:`repro.simnet.faults.Outage`); merges
happen independently inside each connected component, so a partitioned
minority diverges and then converges after heal — the convergence the
X7 oracle asserts.

Read policies (:class:`ReadPolicy`) decide when a replica may answer a
lookup:

- ``ANY``: always answer from local state (fastest, weakest);
- ``NEAREST``: like ANY — the *client* expresses nearness by ordering
  its replica preference (see :class:`repro.phi.failover.FailoverChannel`);
- ``QUORUM``: answer only when the serving replica can currently see a
  majority of the mesh *and* merged recently; otherwise the lookup
  raises :class:`QuorumUnavailable`, which the replica's control channel
  ends as a ``REFUSED`` result: the failover channel tries the next
  replica, and the resilient client degrades as on any failed call
  (STALE cache, then stock fallback).

Known approximation, by design: between merges two replicas can each
FIFO-release the *same* oldest lease for different reports, so ``n`` can
transiently overcount by the number of such collisions until the TTL
catches the orphan.  With sticky client failover (senders talk to one
replica at a time) collisions are rare, and ``n`` is an estimate anyway
— the divergence gauge and the oracle bound the effect.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..simnet.engine import Simulator
from ..telemetry import session as _telemetry_session
from .context import CongestionContext
from .server import ConnectionReport, ContextServer, RobustAggregationConfig


class ReadPolicy(Enum):
    """When a replica may answer a lookup from its local state."""

    ANY = "any"
    NEAREST = "nearest"
    QUORUM = "quorum"


class QuorumUnavailable(ConnectionError):
    """A QUORUM-policy lookup hit a replica that cannot see a majority
    (or whose merge state is too stale to answer for the majority).

    An ``OSError`` (through :class:`ConnectionError`), so the control
    channel ends the call as ``REFUSED``: "this replica cannot serve you
    now", not a bug.
    """


@dataclass(frozen=True)
class ReplicationConfig:
    """Shape and cadence of the replicated control plane.

    Attributes
    ----------
    n_replicas:
        How many :class:`ContextServer` replicas to run.
    anti_entropy_period_s:
        Merge cadence.  Every period, each connected component of the
        replica mesh reconciles reports and leases.  With ``n_replicas
        == 1`` no merges are scheduled at all, keeping the event
        trajectory bit-identical to a single plain server (the
        replication oracle's claim).
    read_policy:
        See :class:`ReadPolicy`.
    quorum_staleness_s:
        Under ``QUORUM``, the longest a replica may go without a merge
        and still answer (it must be able to speak for a recent
        majority view, not just historically have been part of one).
    """

    n_replicas: int = 3
    anti_entropy_period_s: float = 1.0
    read_policy: ReadPolicy = ReadPolicy.ANY
    quorum_staleness_s: float = 5.0

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1: {self.n_replicas}")
        if not self.anti_entropy_period_s > 0:  # NaN too
            raise ValueError(
                f"anti_entropy_period_s must be positive: "
                f"{self.anti_entropy_period_s}"
            )
        if not self.quorum_staleness_s > 0:
            raise ValueError(
                f"quorum_staleness_s must be positive: {self.quorum_staleness_s}"
            )


#: A lease's globally unique identity: (issuing replica, local sequence).
LeaseId = Tuple[int, int]

#: Canonical replay order for anti-entropy: time first, then every field
#: so the order is total even for same-instant reports (EWMA folds are
#: order-sensitive; determinism requires a total order).
_report_key = operator.attrgetter(
    "reported_at",
    "flow_id",
    "bytes_transferred",
    "duration_s",
    "mean_rtt_s",
    "min_rtt_s",
    "loss_indicator",
)


class ReplicaHandle:
    """One replica's ``ContextSource`` surface plus its replication logs.

    Senders (through a per-replica
    :class:`~repro.phi.channel.ControlChannel`) talk to a handle exactly
    as they would to a plain server.  The handle shadows the server's
    lease lifecycle with globally identified leases — issue log and
    release log — so anti-entropy can reconcile lease *knowledge*, not
    just counts, and tracks which reports this replica has folded in.
    """

    def __init__(
        self, service: "ReplicatedContextService", index: int, server: ContextServer
    ) -> None:
        self.service = service
        self.sim: Simulator = service.sim
        self.index = index
        self.server = server
        self._lease_seq = itertools.count()
        #: Every lease this replica knows was issued (own and learned).
        self.lease_log: Dict[LeaseId, float] = {}
        #: Leases this replica knows were released by a report.
        self.released: Dict[LeaseId, float] = {}
        #: ``(issued_at, lease_id)`` heap of the leases still to release,
        #: rebuilt at each merge; may hold TTL-expired ones (skipped).
        self._unreleased: List[Tuple[float, LeaseId]] = []
        #: No entry of ``lease_log`` was issued before this.
        self._oldest_issue_s = math.inf
        #: Reports folded into this replica's server (window-pruned).
        self.seen: Set[ConnectionReport] = set()
        self.last_merge_s = service.sim.now

    # ------------------------------------------------------------------
    # ContextSource protocol
    # ------------------------------------------------------------------
    def lookup(self) -> CongestionContext:
        """Serve a connection-start lookup from this replica's state."""
        if self.service.config.read_policy is ReadPolicy.QUORUM:
            self.service._check_read_policy(self.index)
        context = self.server.lookup()
        now = self.sim._now
        ttl = self.server.lease_ttl_s
        if ttl is not None and self._oldest_issue_s <= now - ttl:
            self._expire_lease_log()
        lease = (self.index, next(self._lease_seq))
        self.lease_log[lease] = now
        heapq.heappush(self._unreleased, (now, lease))
        self._oldest_issue_s = min(self._oldest_issue_s, now)
        return context

    def report(self, report: ConnectionReport) -> None:
        """Accept a connection-end report into this replica's state."""
        rejected_before = self.server.reports_rejected
        self.server.report(report)
        if self.server.reports_rejected > rejected_before:
            # Dropped whole by robust validation: no lease was released
            # and nothing entered the window, so nothing to replicate.
            return
        ttl = self.server.lease_ttl_s
        if ttl is not None and self._oldest_issue_s <= self.sim._now - ttl:
            self._expire_lease_log()
        while self._unreleased and self._unreleased[0][1] not in self.lease_log:
            heapq.heappop(self._unreleased)  # TTL-expired since it was pushed
        if self._unreleased:
            # Mirror the server's FIFO release: oldest outstanding lease,
            # with the lease id as a deterministic tie-break.
            issued_at, oldest = heapq.heappop(self._unreleased)
            self.released[oldest] = issued_at
        self.seen.add(report)

    # ------------------------------------------------------------------
    # Lease bookkeeping
    # ------------------------------------------------------------------
    def outstanding_leases(self) -> Dict[LeaseId, float]:
        """Leases issued, not released, and not TTL-expired — this
        replica's view of ``n``'s composition."""
        self._expire_lease_log()
        return {
            lid: ts for lid, ts in self.lease_log.items()
            if lid not in self.released
        }

    def _expire_lease_log(self) -> None:
        """Drop TTL-expired entries, mirroring the server's expiry.  The
        RPC paths test its guard inline: most calls have nothing to drop."""
        ttl = self.server.lease_ttl_s
        if ttl is None or self._oldest_issue_s > self.sim._now - ttl:
            return
        horizon = self.sim._now - ttl
        expired = [lid for lid, ts in self.lease_log.items() if ts <= horizon]
        for lid in expired:
            del self.lease_log[lid]
            self.released.pop(lid, None)
        self._oldest_issue_s = min(self.lease_log.values(), default=math.inf)


class ReplicatedContextService:
    """N context-server replicas plus the anti-entropy that binds them.

    Construction mirrors :class:`ContextServer` (same estimator knobs,
    applied to every replica) with a :class:`ReplicationConfig` for the
    distributed-systems shape.  Senders should each be wired to one
    replica's :meth:`handle` through a
    :class:`~repro.phi.channel.ControlChannel`, with a
    :class:`~repro.phi.failover.FailoverChannel` on top for failover.
    """

    def __init__(
        self,
        sim: Simulator,
        bottleneck_capacity_bps: float,
        *,
        config: Optional[ReplicationConfig] = None,
        window_s: float = 10.0,
        ewma_alpha: float = 0.3,
        lease_ttl_s: Optional[float] = 300.0,
        robust: Optional[RobustAggregationConfig] = None,
    ) -> None:
        self.sim = sim
        self.config = config or ReplicationConfig()
        self.servers: List[ContextServer] = [
            ContextServer(
                sim,
                bottleneck_capacity_bps,
                window_s=window_s,
                ewma_alpha=ewma_alpha,
                lease_ttl_s=lease_ttl_s,
                robust=robust,
            )
            for _ in range(self.config.n_replicas)
        ]
        self.handles: List[ReplicaHandle] = [
            ReplicaHandle(self, index, server)
            for index, server in enumerate(self.servers)
        ]
        self._severed: Set[frozenset] = set()
        self.anti_entropy_merges = 0
        self.reports_replicated = 0
        self.quorum_rejections = 0
        #: (sim time, divergence) sampled at every anti-entropy tick —
        #: the convergence oracle's evidence trail.
        self.divergence_history: List[Tuple[float, float]] = []
        # A single replica has no peer to reconcile with: scheduling no
        # ticks keeps the N=1 event trajectory bit-identical to a plain
        # single-server deployment (asserted by the replication oracle).
        if self.n_replicas > 1:
            sim.schedule(self.config.anti_entropy_period_s, self._tick)

    @property
    def n_replicas(self) -> int:
        return len(self.servers)

    def handle(self, index: int) -> ReplicaHandle:
        """The ``ContextSource``-compatible surface of replica ``index``."""
        return self.handles[index]

    # ------------------------------------------------------------------
    # Mesh connectivity (driven by Outage faults)
    # ------------------------------------------------------------------
    def _check_edge(self, i: int, j: int) -> None:
        n = self.n_replicas
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"replica index out of range: ({i}, {j}) of {n}")
        if i == j:
            raise ValueError(f"a replica cannot be severed from itself: {i}")

    def sever(self, i: int, j: int) -> None:
        """Cut the anti-entropy path between replicas ``i`` and ``j``."""
        self._check_edge(i, j)
        self._severed.add(frozenset((i, j)))

    def heal(self, i: int, j: int) -> None:
        """Restore the anti-entropy path between ``i`` and ``j``."""
        self._check_edge(i, j)
        self._severed.discard(frozenset((i, j)))

    def reachable(self, i: int, j: int) -> bool:
        """Whether ``i`` and ``j`` can gossip directly right now."""
        return i == j or frozenset((i, j)) not in self._severed

    def components(self) -> List[List[int]]:
        """Connected components of the replica mesh, each sorted."""
        unvisited = set(range(self.n_replicas))
        components: List[List[int]] = []
        while unvisited:
            root = min(unvisited)
            component = {root}
            frontier = [root]
            unvisited.discard(root)
            while frontier:
                node = frontier.pop()
                for peer in list(unvisited):
                    if self.reachable(node, peer):
                        component.add(peer)
                        unvisited.discard(peer)
                        frontier.append(peer)
            components.append(sorted(component))
        return components

    def component_of(self, index: int) -> List[int]:
        """The connected component containing replica ``index``."""
        for component in self.components():
            if index in component:
                return component
        raise ValueError(f"replica index out of range: {index}")

    # ------------------------------------------------------------------
    # Read policy
    # ------------------------------------------------------------------
    def _check_read_policy(self, index: int) -> None:
        if (
            self.config.read_policy is not ReadPolicy.QUORUM
            or self.n_replicas == 1
        ):
            return
        component = self.component_of(index)
        if 2 * len(component) <= self.n_replicas:
            self.quorum_rejections += 1
            raise QuorumUnavailable(
                f"replica {index} sees {len(component)}/{self.n_replicas} "
                f"replicas; no quorum"
            )
        staleness = self.sim.now - self.handles[index].last_merge_s
        limit = max(
            self.config.quorum_staleness_s, self.config.anti_entropy_period_s
        )
        if staleness > limit:
            self.quorum_rejections += 1
            raise QuorumUnavailable(
                f"replica {index} last merged {staleness:.3f}s ago "
                f"(limit {limit:.3f}s)"
            )

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        for component in self.components():
            if len(component) > 1:
                self._merge(component)
        divergence = self.replica_divergence()
        self.divergence_history.append((self.sim.now, divergence))
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.gauge("phi.replica_divergence").set(divergence)
        self.sim.schedule(self.config.anti_entropy_period_s, self._tick)

    def _merge(self, component: Sequence[int]) -> None:
        """Reconcile reports and leases across one connected component."""
        now = self.sim.now
        handles = [self.handles[i] for i in component]

        # Reports: union of every member's in-window set, replayed into
        # the members that missed them in one canonical order.
        # Aged reports leave ``seen`` in place: rebuilding it would rehash
        # every resident report (a Python-level ``__hash__`` each).
        union: Set[ConnectionReport] = set()
        for handle in handles:
            horizon = now - handle.server.window_s
            aged = [r for r in handle.seen if r.reported_at < horizon]
            handle.seen.difference_update(aged)
            union |= handle.seen
        for handle in handles:
            missing = sorted(union - handle.seen, key=_report_key)
            handle.server.absorb(missing)
            self.reports_replicated += len(missing)
            handle.seen = set(union)

        # Leases: outstanding = union(issued) − union(released) − expired.
        for handle in handles:
            handle._expire_lease_log()
        union_log: Dict[LeaseId, float] = {}
        union_released: Dict[LeaseId, float] = {}
        for handle in handles:
            union_log.update(handle.lease_log)
            union_released.update(handle.released)
        outstanding = sorted(
            (ts, lid) for lid, ts in union_log.items() if lid not in union_released
        )
        oldest_issue_s = min(union_log.values(), default=math.inf)
        for handle in handles:
            handle.lease_log = dict(union_log)
            handle.released = dict(union_released)
            handle._unreleased = list(outstanding)  # sorted, so already a heap
            handle._oldest_issue_s = oldest_issue_s
            handle.server.reset_leases([ts for ts, _ in outstanding])
            handle.last_merge_s = now

        self.anti_entropy_merges += 1
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter("phi.anti_entropy_merges").inc()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def replica_divergence(self) -> float:
        """Max cross-replica gap in the utilization estimate.

        Utilization is the estimate partitions skew hardest (a cut-off
        replica misses every report landing on the other side), and it is
        a pure function of the report window — so after a full merge the
        gap collapses to zero, which is what the convergence oracle pins.
        """
        if self.n_replicas < 2:
            return 0.0
        estimates = [server.estimated_utilization() for server in self.servers]
        return max(estimates) - min(estimates)

    def total_reports_received(self) -> int:
        """Reports received first-hand across all replicas (absorbed
        copies excluded)."""
        return sum(server.reports_received for server in self.servers)
