"""The Phi context server.

Section 2.2.2: "we envisage a *context server*, say within a domain
(i.e., within one of the 'five' computers), that serves as the repository
of shared state from which the congestion context can be computed.
Information from senders on when and how much data is transferred would
enable estimation of u and n, while the difference between the current
RTT and the minimum RTT would give an indication of q."

Two operating modes are provided:

- **practical** (:class:`ContextServer`): the server only learns from the
  minimal protocol — a lookup when a connection starts and a report when
  it ends — and estimates (u, q, n) from those reports.
- **ideal** (:class:`IdealContextOracle`): wired straight to the
  simulator's bottleneck instrumentation, giving every sender
  "up-to-the-minute" ground truth.  This is the upper bound the paper
  calls Remy-Phi-ideal / the fully-shared Cubic setting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..simnet.monitor import ActiveFlowTracker, LinkMonitor
from ..telemetry import session as _telemetry_session
from ..transport.base import ConnectionStats
from .context import CongestionContext


@dataclass(frozen=True)
class ConnectionReport:
    """What a sender tells the context server when a connection ends."""

    flow_id: int
    reported_at: float
    bytes_transferred: int
    duration_s: float
    mean_rtt_s: float
    min_rtt_s: float
    loss_indicator: float

    @classmethod
    def from_stats(cls, stats: ConnectionStats, reported_at: float) -> "ConnectionReport":
        """Build a report from a connection's final statistics."""
        min_rtt = stats.min_rtt if stats.rtt_samples else 0.0
        return cls(
            flow_id=stats.flow_id,
            reported_at=reported_at,
            bytes_transferred=stats.bytes_goodput,
            duration_s=stats.duration,
            mean_rtt_s=stats.mean_rtt,
            min_rtt_s=min_rtt,
            loss_indicator=stats.loss_indicator,
        )

    @property
    def queue_delay_s(self) -> float:
        """RTT inflation this connection observed (the ``q`` signal)."""
        if self.min_rtt_s <= 0:
            return 0.0
        return max(0.0, self.mean_rtt_s - self.min_rtt_s)


#: A lease's globally unique identity: (issuing replica, local sequence).
LeaseId = Tuple[int, int]
#: One lease as the server orders it: oldest first, the id breaking ties.
Lease = Tuple[float, LeaseId]


#: Smoothing for the queue-delay and loss estimates: the last three
#: reports carry two thirds of the weight.
EWMA_ALPHA = 0.3

# Robust (Byzantine-resistant) aggregation.  A robust server (a) rejects
# reports whose fields are not even well-formed telemetry and (b)
# aggregates the rest so no single reporter moves an estimate much: queue
# delay and loss use a trimmed mean over the window's reports instead of
# a last-writer-wins EWMA, and each report's contribution to utilization
# is capped at a multiple of the window's median contribution.

#: Fraction of reports discarded from *each* tail before averaging queue
#: delay and loss: tolerates up to 20% colluding liars.
TRIM_FRACTION = 0.2
#: Cap on one report's goodput contribution, as a multiple of the median
#: positive contribution in the window.  Bounds the damage of a single
#: "I transferred a petabyte" report.
INFLUENCE_BOUND = 4.0
#: Below this many reports in the window, trimming would discard most of
#: the evidence; the server falls back to the EWMA path.
MIN_REPORTS_FOR_TRIM = 4


def _trimmed_mean(values: Sequence[float], trim_fraction: float) -> float:
    """Mean after dropping ``trim_fraction`` of samples from each tail."""
    ordered = sorted(values)
    k = int(len(ordered) * trim_fraction)
    kept = ordered[k : len(ordered) - k] if k else ordered
    return sum(kept) / len(kept)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def report_invalid_reason(report: ConnectionReport) -> Optional[str]:
    """Why a report is not even well-formed telemetry (``None`` if it is).

    Reports arrive from untrusted senders over the wire, so — like
    contexts (see :func:`~repro.phi.corruption.raw_context`) — their
    dataclass invariants cannot be assumed to have run.
    """
    for name in (
        "reported_at",
        "bytes_transferred",
        "duration_s",
        "mean_rtt_s",
        "min_rtt_s",
        "loss_indicator",
    ):
        value = getattr(report, name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "non_finite"
    if report.bytes_transferred < 0:
        return "negative_bytes"
    if report.duration_s < 0:
        return "negative_duration"
    if report.mean_rtt_s < 0 or report.min_rtt_s < 0:
        return "negative_rtt"
    if not 0.0 <= report.loss_indicator <= 1.0:
        return "loss_out_of_range"
    return None


class ContextServer:
    """Practical shared-state repository fed by start/end protocol messages.

    Parameters
    ----------
    sim:
        Simulator (for timestamps).
    bottleneck_capacity_bps:
        Known egress capacity toward the destination aggregate (a cloud
        provider knows its provisioned WAN capacity).  Utilization is
        estimated as recently-reported goodput over this capacity.
    window_s:
        Sliding estimation window.  Reports older than this age out.
    lease_ttl_s:
        How long a lookup counts toward ``n`` without a matching report.
        A sender that crashes (or whose report is lost) would otherwise
        inflate the active-connection count forever; its lease expires
        after this long instead.  It also bounds the release log.
    robust:
        Robust aggregation.  When set, malformed reports are rejected
        outright and the (u, q) estimates switch from EWMA / raw sums to
        trimmed means and influence-capped sums so a minority of
        Byzantine reporters cannot steer them.  The default preserves
        the original trusting estimators bit-for-bit.
    replica_index:
        This server's place in a replicated service (a lone server is
        0): the first half of every lease id it issues.
    """

    def __init__(
        self,
        sim: Simulator,
        bottleneck_capacity_bps: float,
        *,
        window_s: float = 10.0,
        lease_ttl_s: float = 300.0,
        robust: bool = False,
        replica_index: int = 0,
    ) -> None:
        self.sim = sim
        self.capacity_bps = check("bottleneck_capacity_bps", bottleneck_capacity_bps, gt=0)
        self.window_s = check("window_s", window_s, gt=0)
        self.lease_ttl_s = check("lease_ttl_s", lease_ttl_s, gt=0)
        self.robust = robust

        #: The window, in ``reported_at`` order: expiry pops from the left.
        self._reports: Deque[ConnectionReport] = deque()
        #: Each resident report's goodput bits, parallel to ``_reports``
        #: (0.0 where none): utilization is the builtin ``sum`` over it.
        self._bits: Deque[float] = deque()
        #: Heap of the connection starts of the reports wholly inside the
        #: window, whose bits therefore do not depend on the clock ...
        self._settled: List[float] = []
        #: ... and the few whose bits do (straddling the left edge, or
        #: future-dated), as positions: deque index + reports popped so
        #: far, which only the insertion merge moves (and re-keys).
        self._clocked: Set[int] = set()
        self._popped = 0
        #: Heap of the leases whose connections have not reported back
        #: yet, each on one slot of ``n`` ...
        self._leases: List[Lease] = []
        #: ... and of those a report released, which anti-entropy tells
        #: the peers about.  TTL expiry drops from both.
        self._released: List[Lease] = []
        self._lease_ids = zip(itertools.repeat(replica_index), itertools.count())
        self._queue_delay_ewma = 0.0
        self._have_estimate = False

        self.reports_rejected = 0

    # ------------------------------------------------------------------
    # Protocol: lookup at connection start, report at connection end.
    # ------------------------------------------------------------------
    def lookup(self) -> CongestionContext:
        """Connection-start query: the current congestion context.

        Also registers the connection as active (the lookup itself tells
        the server a new connection is starting, contributing to ``n``)
        by taking out a lease that a later report releases — or that
        expires after ``lease_ttl_s`` if the sender never reports back.
        """
        heapq.heappush(self._leases, (self.sim._now, next(self._lease_ids)))
        return self.current_context()

    def report(self, report: ConnectionReport) -> None:
        """Connection-end report: fold the connection's experience in.

        On a robust server, a malformed report is dropped whole before
        it touches any estimator state — including its lease release, so
        a garbage-spewing reporter ages out via the lease TTL like a
        crashed sender rather than silently shrinking ``n``.  Otherwise
        it releases a lease and goes into the window by the one
        insertion path, as an absorbed report does: one whose
        ``reported_at`` the window has already passed (a backlog flushed
        after a long outage) teaches nothing else.
        """
        if self.robust:
            reason = report_invalid_reason(report)
            if reason is not None:
                self.reports_rejected += 1
                tele = _telemetry_session()
                if tele.enabled:
                    tele.registry.counter(
                        "phi.report_rejections", reason=reason
                    ).inc()
                return
        self._expire_leases()
        if self._leases:
            # Release the oldest outstanding lease (reports carry no
            # lookup id in the paper's minimal protocol, so FIFO pairing
            # is the best-effort match).
            heapq.heappush(self._released, heapq.heappop(self._leases))
        self._insert((report,))

    # ------------------------------------------------------------------
    # Replication hooks (anti-entropy; see repro.phi.replication)
    # ------------------------------------------------------------------
    def absorb(self, reports: Sequence[ConnectionReport]) -> None:
        """Fold a batch of reports learned from peer replicas into the estimators.

        Anti-entropy replay: the replica that served the original lookup
        already handled the lease lifecycle, so — unlike :meth:`report` —
        no lease is released here.  ``reports`` come in ``reported_at``
        order and go into the window by the one insertion path.
        Robust-mode validation still applies.
        """
        if self.robust:
            # A peer should never replicate garbage (it validates on
            # receipt), but a robust server stays robust regardless.
            reports = [r for r in reports if report_invalid_reason(r) is None]
        self._insert(reports)

    def window(self) -> Dict[int, ConnectionReport]:
        """The reports inside the window, keyed by identity: what
        anti-entropy tells the peers about.  The left edge moves up to
        the clock first, so every resident is inside."""
        self._expire_old_reports()
        return dict(zip(map(id, self._reports), self._reports))

    def _insert(self, reports: Sequence[ConnectionReport]) -> None:
        """The one insertion path: merge ``reports``, in ``reported_at``
        order, into the window, which stays in that order.

        From the batch's newest report down, the residents later than it
        come off the deque's right end, with their bits and ``_clocked``
        positions, and go back behind it.  New reports get their bits
        and fold into the EWMA in batch order; one the window has
        already passed is skipped, with the older rest of the batch.
        """
        self._expire_old_reports()
        now = self.sim._now
        horizon = now - self.window_s
        window_start = max(0.0, horizon)
        resident, bits, clocked = self._reports, self._bits, self._clocked
        # Newest first: the batch, and the residents later than a batch
        # report, each as (report, bits or None if new, clock-dependent).
        tail: List[tuple] = []
        for report in reversed(reports):
            reported_at = report.reported_at
            if reported_at < horizon:
                break  # the rest of the batch is older still
            while resident and resident[-1].reported_at > reported_at:
                position = len(resident) - 1 + self._popped
                tail.append((resident.pop(), bits.pop(), position in clocked))
                clocked.discard(position)
            tail.append((report, None, False))
        for report, cached, is_clocked in reversed(tail):
            if cached is None:
                reported_at, duration_s = report.reported_at, report.duration_s
                conn_start = reported_at - duration_s
                # _bits_of and ConnectionReport.queue_delay_s, inline.
                overlap = min(reported_at, now) - max(conn_start, window_start)
                cached = 0.0
                if not (overlap <= 0 or duration_s <= 0):  # NaN counts, as in _bits_of
                    cached = report.bytes_transferred * 8.0 * min(1.0, overlap / duration_s) or 0.0
                is_clocked = not (reported_at <= now and conn_start >= window_start)
                if not is_clocked:
                    heapq.heappush(self._settled, conn_start)
                min_rtt_s = report.min_rtt_s
                queue_delay_s = 0.0 if min_rtt_s <= 0 else max(0.0, report.mean_rtt_s - min_rtt_s)
                if self._have_estimate:
                    queue_delay_s = (
                        (1 - EWMA_ALPHA) * self._queue_delay_ewma + EWMA_ALPHA * queue_delay_s
                    )
                self._queue_delay_ewma, self._have_estimate = queue_delay_s, True
            if is_clocked:
                clocked.add(len(resident) + self._popped)
            resident.append(report)
            bits.append(cached)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _expire_old_reports(self) -> None:
        """Move the window's left edge up to the clock."""
        horizon = self.sim._now - self.window_s
        window_start = max(0.0, horizon)
        passed = 0
        while self._settled and self._settled[0] < window_start:
            heapq.heappop(self._settled)
            passed += 1
        if passed:
            # The edge passed that many settled connection starts; their
            # reports now straddle it or have aged out.  Found before the
            # expiry below, so none is popped unfound (bar a negative duration).
            clocked = self._clocked
            for p, report in enumerate(self._reports, self._popped):
                if report.reported_at - report.duration_s < window_start and p not in clocked:
                    clocked.add(p)
                    passed -= 1
                    if not passed:
                        break
        while self._reports and self._reports[0].reported_at < horizon:
            self._clocked.discard(self._popped)
            self._reports.popleft()
            self._bits.popleft()
            self._popped += 1

    def _expire_leases(self) -> None:
        horizon = self.sim._now - self.lease_ttl_s
        leases, released = self._leases, self._released
        while leases and leases[0][0] <= horizon:
            heapq.heappop(leases)
        while released and released[0][0] <= horizon:
            heapq.heappop(released)

    def estimated_utilization(self) -> float:
        """u: recently reported goodput over the known capacity.

        Each report contributes the portion of its transfer that overlaps
        the sliding window, so long connections are not over-counted.
        """
        self._expire_old_reports()
        now = self.sim._now
        window_start = max(0.0, now - self.window_s)
        window_len = max(1e-9, now - window_start)
        popped = self._popped
        for position in self._clocked:
            index = position - popped
            self._bits[index] = self._bits_of(self._reports[index], window_start) or 0.0
        contributions: Iterable[float] = self._bits
        if self.robust:  # the cap is a median over overlapping reports only
            every = (self._bits_of(report, window_start) for report in self._reports)
            contributions = self._bound_influence([b for b in every if b is not None])
        return min(1.0, sum(contributions) / (self.capacity_bps * window_len))

    def _bits_of(self, report: ConnectionReport, window_start: float) -> Optional[float]:
        """Bits of ``report`` that fall inside the window (``None``: none)."""
        conn_start = report.reported_at - report.duration_s
        overlap = min(report.reported_at, self.sim._now) - max(conn_start, window_start)
        if overlap <= 0 or report.duration_s <= 0:
            return None
        return report.bytes_transferred * 8.0 * min(1.0, overlap / report.duration_s)

    def _bound_influence(self, contributions: List[float]) -> List[float]:
        """Cap per-report goodput contributions under robust aggregation.

        A Byzantine reporter claiming an absurd transfer is clipped to
        :data:`INFLUENCE_BOUND` times the median honest contribution, so
        it can nudge the utilization estimate but not saturate it alone.
        """
        if len(contributions) < MIN_REPORTS_FOR_TRIM:
            return contributions
        positive = [c for c in contributions if c > 0]
        if not positive:
            return contributions
        cap = INFLUENCE_BOUND * _median(positive)
        return [min(c, cap) for c in contributions]

    def _trimmed_queue_delay(self, fallback: float) -> float:
        """The window's trimmed-mean queue delay: outlier reporters are cut
        from both tails, not smoothed in.  ``fallback`` below
        :data:`MIN_REPORTS_FOR_TRIM` reports."""
        if len(self._reports) < MIN_REPORTS_FOR_TRIM:
            return fallback
        values = [report.queue_delay_s for report in self._reports]
        return _trimmed_mean(values, TRIM_FRACTION)

    def current_context(self) -> CongestionContext:
        """Assemble the (u, q, n) snapshot from the practical estimates.

        ``n`` (and the fair share derived from it) is exact in real time:
        the server counts leases — lookups that have neither reported
        back nor expired.
        """
        self._expire_leases()
        n = len(self._leases)
        utilization = self.estimated_utilization()  # advances the window for both
        queue_delay_s = self._queue_delay_ewma
        if self.robust:
            queue_delay_s = self._trimmed_queue_delay(queue_delay_s)
        return CongestionContext(
            utilization=utilization,
            queue_delay_s=queue_delay_s,
            competing_senders=float(n),
            timestamp=self.sim._now,
            fair_share_mbps=self.capacity_bps / max(1, n) / 1e6,
        )


#: Monitor samples the ideal oracle averages over.
IDEAL_WINDOW = 10


class IdealContextOracle:
    """Ground-truth context source (the paper's "ideal" setting).

    Reads the bottleneck's :class:`LinkMonitor` and the
    :class:`ActiveFlowTracker` directly, so every lookup returns
    up-to-the-minute truth with no estimation error or staleness.
    """

    def __init__(
        self,
        sim: Simulator,
        monitor: LinkMonitor,
        flow_tracker: Optional[ActiveFlowTracker] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.flow_tracker = flow_tracker

    def lookup(self) -> CongestionContext:
        """Connection-start query (same protocol surface as the server)."""
        return self.current_context()

    def report(self, report: ConnectionReport) -> None:
        """Reports are accepted for interface parity but unnecessary."""

    def current_context(self) -> CongestionContext:
        """Snapshot straight from the link instrumentation."""
        queue_bytes = self.monitor.current_queue_bytes(IDEAL_WINDOW)
        queue_delay = queue_bytes * 8.0 / self.monitor.link.bandwidth_bps
        n = float(self.flow_tracker.active_flows) if self.flow_tracker else 0.0
        fair_share = self.monitor.link.bandwidth_bps / max(1.0, n) / 1e6
        return CongestionContext(
            utilization=self.monitor.current_utilization(IDEAL_WINDOW),
            queue_delay_s=queue_delay,
            competing_senders=n,
            timestamp=self.sim.now,
            fair_share_mbps=fair_share,
        )

    def utilization_provider(self) -> Callable[[], float]:
        """A live ``u`` callable for Remy-Phi-ideal memory tracking."""
        return lambda: self.monitor.current_utilization(IDEAL_WINDOW)
