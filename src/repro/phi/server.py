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
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Set

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


@dataclass(frozen=True)
class RobustAggregationConfig:
    """Byzantine-resistant estimation knobs for :class:`ContextServer`.

    With a robust config the server (a) rejects reports whose fields are
    not even well-formed telemetry and (b) aggregates the remainder so no
    single reporter moves an estimate much: queue delay and loss use a
    trimmed mean over the window's reports instead of a last-writer-wins
    EWMA, and each report's contribution to utilization is capped at a
    multiple of the window's median contribution.

    Attributes
    ----------
    trim_fraction:
        Fraction of reports discarded from *each* tail before averaging
        queue delay and loss.  0.2 tolerates up to 20% colluding liars.
    influence_bound:
        Cap on one report's goodput contribution, as a multiple of the
        median positive contribution in the window.  Bounds the damage
        of a single "I transferred a petabyte" report.
    min_reports_for_trim:
        Below this many reports in the window, trimming would discard
        most of the evidence; the server falls back to the EWMA path.
    """

    trim_fraction: float = 0.2
    influence_bound: float = 4.0
    min_reports_for_trim: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError(
                f"trim_fraction must be in [0, 0.5): {self.trim_fraction}"
            )
        if self.influence_bound < 1.0:
            raise ValueError(
                f"influence_bound must be >= 1: {self.influence_bound}"
            )
        if self.min_reports_for_trim < 1:
            raise ValueError(
                f"min_reports_for_trim must be >= 1: {self.min_reports_for_trim}"
            )


def _trimmed_mean(values: Sequence[float], trim_fraction: float) -> float:
    """Mean after dropping ``trim_fraction`` of samples from each tail."""
    ordered = sorted(values)
    k = int(len(ordered) * trim_fraction)
    kept = ordered[k : len(ordered) - k] if k else ordered
    if not kept:
        kept = ordered
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
    ewma_alpha:
        Smoothing for the queue-delay and loss estimates.
    lease_ttl_s:
        How long a lookup counts toward ``n`` without a matching report.
        A sender that crashes (or whose report is lost) would otherwise
        inflate the active-connection count forever; its lease expires
        after this long instead.  ``None`` disables expiry.
    robust:
        Optional :class:`RobustAggregationConfig`.  When set, malformed
        reports are rejected outright and the (u, q) estimates switch
        from EWMA / raw sums to trimmed means and influence-capped sums
        so a minority of Byzantine reporters cannot steer them.  The
        default (``None``) preserves the original trusting estimators
        bit-for-bit.
    """

    def __init__(
        self,
        sim: Simulator,
        bottleneck_capacity_bps: float,
        *,
        window_s: float = 10.0,
        ewma_alpha: float = 0.3,
        lease_ttl_s: Optional[float] = 300.0,
        robust: Optional[RobustAggregationConfig] = None,
    ) -> None:
        if bottleneck_capacity_bps <= 0:
            raise ValueError(
                f"capacity must be positive: {bottleneck_capacity_bps}"
            )
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        if not 0 < ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        if lease_ttl_s is not None and not lease_ttl_s > 0:  # NaN never expires
            raise ValueError(f"lease_ttl_s must be positive: {lease_ttl_s}")
        self.sim = sim
        self.capacity_bps = bottleneck_capacity_bps
        self.window_s = window_s
        self.ewma_alpha = ewma_alpha
        self.lease_ttl_s = lease_ttl_s
        self.robust = robust

        self._reports: Deque[ConnectionReport] = deque()
        #: Each resident report's goodput bits, parallel to ``_reports``
        #: (0.0 where none): utilization is the builtin ``sum`` over it.
        self._bits: Deque[float] = deque()
        #: Heap of the connection starts of the reports wholly inside the
        #: window, whose bits therefore do not depend on the clock ...
        self._settled: List[float] = []
        #: ... and the few whose bits do (straddling the left edge, or
        #: future-dated), as positions: deque index + reports popped so
        #: far, which neither ``append`` nor ``popleft`` moves.
        self._clocked: Set[int] = set()
        self._popped = 0
        #: Lookup timestamps whose connections have not reported back yet;
        #: each is a lease on one slot of ``n``.
        self._leases: Deque[float] = deque()
        self._queue_delay_ewma = 0.0
        self._loss_ewma = 0.0
        self._have_estimate = False

        self.lookups = 0
        self.reports_received = 0
        self.reports_absorbed = 0
        self.leases_expired = 0
        self.reports_rejected = 0
        self.report_rejections: dict = {}

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
        self.lookups += 1
        self._leases.append(self.sim._now)
        return self.current_context()

    def report(self, report: ConnectionReport) -> None:
        """Connection-end report: fold the connection's experience in.

        With a robust config, a malformed report is dropped whole before
        it touches any estimator state — including its lease release, so
        a garbage-spewing reporter ages out via the lease TTL like a
        crashed sender rather than silently shrinking ``n``.
        """
        self.reports_received += 1
        if self.robust is not None:
            reason = report_invalid_reason(report)
            if reason is not None:
                self.reports_rejected += 1
                self.report_rejections[reason] = (
                    self.report_rejections.get(reason, 0) + 1
                )
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
            self._leases.popleft()
        self._admit(report, max(0.0, self.sim._now - self.window_s))
        self._expire_old_reports()

    def _admit(self, report: ConnectionReport, window_start: float) -> None:
        """Append ``report`` to the window with its cached contribution and
        fold it into the queue-delay and loss EWMAs."""
        now = self.sim._now
        reported_at, duration_s = report.reported_at, report.duration_s
        conn_start = reported_at - duration_s
        # _bits_of and ConnectionReport.queue_delay_s, inline.
        overlap = min(reported_at, now) - max(conn_start, window_start)
        bits = 0.0
        if not (overlap <= 0 or duration_s <= 0):  # NaN counts, as in _bits_of
            bits = report.bytes_transferred * 8.0 * min(1.0, overlap / duration_s) or 0.0
        self._bits.append(bits)
        if reported_at <= now and conn_start >= window_start:
            heapq.heappush(self._settled, conn_start)
        else:
            self._clocked.add(len(self._reports) + self._popped)
        self._reports.append(report)
        min_rtt_s = report.min_rtt_s
        queue_delay_s = 0.0 if min_rtt_s <= 0 else max(0.0, report.mean_rtt_s - min_rtt_s)
        if not self._have_estimate:
            self._queue_delay_ewma = queue_delay_s
            self._loss_ewma = report.loss_indicator
            self._have_estimate = True
        else:
            alpha = self.ewma_alpha
            self._queue_delay_ewma = (1 - alpha) * self._queue_delay_ewma + alpha * queue_delay_s
            self._loss_ewma = (1 - alpha) * self._loss_ewma + alpha * report.loss_indicator

    # ------------------------------------------------------------------
    # Replication hooks (anti-entropy; see repro.phi.replication)
    # ------------------------------------------------------------------
    def absorb(self, reports: Sequence[ConnectionReport]) -> None:
        """Fold a batch of reports learned from peer replicas into the estimators.

        Anti-entropy replay: the replica that served the original lookup
        already handled the lease lifecycle, so — unlike :meth:`report` —
        no lease is released here.  ``reports`` come in ``reported_at``
        order; one backward merge puts each where inserting them one by
        one, walking back from the deque's end, would (it may predate
        locally received reports), so the sliding-window expiry logic
        stays valid.  EWMAs fold in batch order.  Robust-mode validation
        still applies; a report that has already aged out of the window
        teaches nothing and is skipped.
        """
        if self.robust is not None:
            # A peer should never replicate garbage (it validates on
            # receipt), but a robust server stays robust regardless.
            reports = [r for r in reports if report_invalid_reason(r) is None]
        self._expire_old_reports()
        horizon = self.sim._now - self.window_s
        resident, bits, clocked = self._reports, self._bits, self._clocked
        # Newest first: the batch, and the residents later than a batch
        # report, which come off the right end to go back behind it.
        tail: List[tuple] = []
        for report in reversed(reports):
            reported_at = report.reported_at
            if reported_at < horizon:
                break  # the rest of the batch is older still
            while resident and resident[-1].reported_at > reported_at:
                position = len(resident) - 1 + self._popped
                moved = position in clocked
                clocked.discard(position)
                tail.append((resident.pop(), bits.pop(), moved))
            tail.append((report, None, False))
        window_start = max(0.0, horizon)
        for report, cached, moved in reversed(tail):
            if cached is None:
                self._admit(report, window_start)
                self.reports_absorbed += 1
                continue
            if moved:
                clocked.add(len(resident) + self._popped)
            resident.append(report)
            bits.append(cached)

    def reset_leases(self, timestamps: Sequence[float]) -> None:
        """Replace the outstanding-lease table wholesale.

        Used by anti-entropy reconciliation: after replicas exchange
        lease issue/release knowledge, each server's table is rewritten
        to the merged view (sorted, so FIFO release and TTL expiry keep
        popping oldest-first).
        """
        self._leases = deque(sorted(timestamps))

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
            # reports, near the deque's old end, now straddle it.  Found before
            # the expiry below, so none is popped unfound (bar a negative duration).
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
        if self.lease_ttl_s is None:
            return
        horizon = self.sim._now - self.lease_ttl_s
        while self._leases and self._leases[0] <= horizon:
            self._leases.popleft()
            self.leases_expired += 1

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
        if self.robust is not None:  # the cap is a median over overlapping reports only
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
        ``influence_bound`` times the median honest contribution, so it
        can nudge the utilization estimate but not saturate it alone.
        """
        robust = self.robust
        if robust is None or len(contributions) < robust.min_reports_for_trim:
            return contributions
        positive = [c for c in contributions if c > 0]
        if not positive:
            return contributions
        cap = robust.influence_bound * _median(positive)
        return [min(c, cap) for c in contributions]

    def _windowed_trim(self, field: str, fallback: float) -> float:
        robust = self.robust
        if robust is None or len(self._reports) < robust.min_reports_for_trim:
            return fallback
        values = [getattr(report, field) for report in self._reports]
        return _trimmed_mean(values, robust.trim_fraction)

    def estimated_queue_delay(self) -> float:
        """q: EWMA of reported RTT inflation.

        Under robust aggregation (and enough reports in the window) this
        becomes a trimmed mean over the window's reports: a minority of
        outlier reporters — however extreme — are discarded from both
        tails instead of being smoothed *into* the estimate.
        """
        self._expire_old_reports()
        return self._windowed_trim("queue_delay_s", self._queue_delay_ewma)

    def estimated_loss(self) -> float:
        """EWMA of reported loss indicators (informs conservative policies).

        Trimmed mean over the window under robust aggregation, like
        :meth:`estimated_queue_delay`.
        """
        self._expire_old_reports()
        return self._windowed_trim("loss_indicator", self._loss_ewma)

    @property
    def active_connections(self) -> int:
        """n: unexpired lookups that have not yet reported back."""
        self._expire_leases()
        return len(self._leases)

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
        if self.robust is not None:
            queue_delay_s = self._windowed_trim("queue_delay_s", queue_delay_s)
        return CongestionContext(
            utilization=utilization,
            queue_delay_s=queue_delay_s,
            competing_senders=float(n),
            timestamp=self.sim._now,
            fair_share_mbps=self.capacity_bps / max(1, n) / 1e6,
        )


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
        *,
        window: int = 10,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.flow_tracker = flow_tracker
        self.window = window
        self.lookups = 0

    def lookup(self) -> CongestionContext:
        """Connection-start query (same protocol surface as the server)."""
        self.lookups += 1
        return self.current_context()

    def report(self, report: ConnectionReport) -> None:
        """Reports are accepted for interface parity but unnecessary."""

    def current_context(self) -> CongestionContext:
        """Snapshot straight from the link instrumentation."""
        queue_bytes = self.monitor.current_queue_bytes(self.window)
        queue_delay = queue_bytes * 8.0 / self.monitor.link.bandwidth_bps
        n = float(self.flow_tracker.active_flows) if self.flow_tracker else 0.0
        fair_share = self.monitor.link.bandwidth_bps / max(1.0, n) / 1e6
        return CongestionContext(
            utilization=self.monitor.current_utilization(self.window),
            queue_delay_s=queue_delay,
            competing_senders=n,
            timestamp=self.sim.now,
            fair_share_mbps=fair_share,
        )

    def utilization_provider(self) -> Callable[[], float]:
        """A live ``u`` callable for Remy-Phi-ideal memory tracking."""
        return lambda: self.monitor.current_utilization(self.window)
