"""Differential model test: ``ContextServer`` against the window rescan.

``RescanServer`` is the estimator as it stood before contributions were
cached per report — every estimate walks the whole window — copied here
as the reference, with one later rule: a report the window has already
passed releases its lease and is otherwise skipped, as an absorbed one is.  Seeded random programs of report / absorb /
lookup / clock advance run against both; after every operation every
field of the context served must be ``==``, not
approximately equal: the cached server's claim is bit-identity.

``ContextServer.absorb`` takes anti-entropy's whole batch, in the merge's
canonical order, and places it with one backward merge; the reference
absorbs the same reports one at a time, each found its place by walking
back from the deque's end.
"""

import random
from collections import deque
from dataclasses import replace

import pytest

from repro.phi.context import CongestionContext
from repro.phi.replication import _report_key
from repro.phi.server import (
    EWMA_ALPHA,
    INFLUENCE_BOUND,
    MIN_REPORTS_FOR_TRIM,
    TRIM_FRACTION,
    ConnectionReport,
    ContextServer,
    report_invalid_reason,
)
from repro.simnet import Simulator

CAPACITY_BPS = 15e6
WINDOW_S = 10.0
LEASE_TTL_S = 3.0


def _trimmed_mean(values, trim_fraction):
    ordered = sorted(values)
    k = int(len(ordered) * trim_fraction)
    kept = ordered[k : len(ordered) - k] if k else ordered
    if not kept:
        kept = ordered
    return sum(kept) / len(kept)


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class RescanServer:
    """The pre-cache ``ContextServer`` estimators, loops and all."""

    def __init__(self, sim, capacity_bps, *, window_s, lease_ttl_s, robust):
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.window_s = window_s
        self.lease_ttl_s = lease_ttl_s
        self.robust = robust
        self._reports = deque()
        self._leases = deque()
        self._queue_delay_ewma = 0.0
        self._have_estimate = False
        self.reports_rejected = 0

    def lookup(self):
        self._expire_leases()
        self._leases.append(self.sim.now)
        return self.current_context()

    def report(self, report):
        if self.robust and report_invalid_reason(report) is not None:
            self.reports_rejected += 1
            return
        self._expire_leases()
        if self._leases:
            self._leases.popleft()
        if report.reported_at < self.sim.now - self.window_s:
            return  # late: it releases its lease and nothing else
        self._reports.append(report)
        self._expire_old_reports()
        self._fold_estimates(report)

    def _fold_estimates(self, report):
        alpha = EWMA_ALPHA
        if not self._have_estimate:
            self._queue_delay_ewma = report.queue_delay_s
            self._have_estimate = True
        else:
            self._queue_delay_ewma = (
                (1 - alpha) * self._queue_delay_ewma + alpha * report.queue_delay_s
            )

    def absorb(self, report):
        if self.robust and report_invalid_reason(report) is not None:
            return
        self._expire_old_reports()
        if report.reported_at < self.sim.now - self.window_s:
            return
        index = len(self._reports)
        while index > 0 and self._reports[index - 1].reported_at > report.reported_at:
            index -= 1
        self._reports.insert(index, report)
        self._fold_estimates(report)

    def _expire_old_reports(self):
        horizon = self.sim.now - self.window_s
        while self._reports and self._reports[0].reported_at < horizon:
            self._reports.popleft()

    def _expire_leases(self):
        horizon = self.sim.now - self.lease_ttl_s
        while self._leases and self._leases[0] <= horizon:
            self._leases.popleft()

    def estimated_utilization(self):
        self._expire_old_reports()
        window_start = max(0.0, self.sim.now - self.window_s)
        window_len = max(1e-9, self.sim.now - window_start)
        contributions = []
        for report in self._reports:
            conn_start = report.reported_at - report.duration_s
            overlap = min(report.reported_at, self.sim.now) - max(
                conn_start, window_start
            )
            if overlap <= 0 or report.duration_s <= 0:
                continue
            fraction = min(1.0, overlap / report.duration_s)
            contributions.append(report.bytes_transferred * 8.0 * fraction)
        bits = sum(self._bound_influence(contributions))
        return min(1.0, bits / (self.capacity_bps * window_len))

    def _bound_influence(self, contributions):
        if not self.robust or len(contributions) < MIN_REPORTS_FOR_TRIM:
            return contributions
        positive = [c for c in contributions if c > 0]
        if not positive:
            return contributions
        cap = INFLUENCE_BOUND * _median(positive)
        return [min(c, cap) for c in contributions]

    def _windowed_trim(self, values, fallback):
        if not self.robust or len(values) < MIN_REPORTS_FOR_TRIM:
            return fallback
        return _trimmed_mean(values, TRIM_FRACTION)

    def estimated_queue_delay(self):
        self._expire_old_reports()
        return self._windowed_trim(
            [r.queue_delay_s for r in self._reports], self._queue_delay_ewma
        )

    @property
    def active_connections(self):
        self._expire_leases()
        return len(self._leases)

    def current_context(self):
        n = self.active_connections
        fair_share = self.capacity_bps / max(1, n) / 1e6
        return CongestionContext(
            utilization=self.estimated_utilization(),
            queue_delay_s=self.estimated_queue_delay(),
            competing_senders=float(n),
            timestamp=self.sim.now,
            fair_share_mbps=fair_share,
        )


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
#: (weight, low, high) of one clock advance: microseconds, the usual
#: inter-arrival gap, a noticeable pause, and one to several windows.
_ADVANCES = ((800, 1e-6, 1e-3), (185, 0.005, 0.06), (12, 0.5, 4.0), (3, 8.0, 35.0))
_ADVANCE_WEIGHTS = [weight for weight, _, _ in _ADVANCES]
_OPS = ("report",) * 9 + ("absorb",) * 4 + ("lookup",) * 5 + ("utilization",) * 2
#: The same mix with anti-entropy batches in it.
_BATCH_OPS = _OPS + ("batch",) * 3


def _advance_clock(rng, sim):
    _, low, high = rng.choices(_ADVANCES, _ADVANCE_WEIGHTS)[0]
    sim.run(until=sim.now + rng.uniform(low, high))


def _draw_report(rng, flow_id, now, *, malformed):
    kind = rng.random()
    if kind < 0.70:
        reported_at = now
    elif kind < 0.88:  # recovered late, or absorbed from a peer: out of order
        reported_at = max(0.0, now - rng.uniform(0.0, 1.4 * WINDOW_S))
    elif kind < 0.94:  # older than the whole window
        reported_at = max(0.0, now - rng.uniform(WINDOW_S, 3 * WINDOW_S))
    else:  # future-dated
        reported_at = now + rng.uniform(1e-4, 0.4 * WINDOW_S)
    shape = rng.random()
    if shape < 0.02:  # garbage a trusting server accepts (and a robust one rejects)
        duration_s = -rng.uniform(1e-3, 2.0)
    elif shape < 0.10:
        duration_s = 0.0
    elif shape < 0.80:
        duration_s = rng.uniform(1e-4, 0.5)
    elif shape < 0.92:
        duration_s = rng.uniform(0.5, WINDOW_S)
    else:  # longer than the window: straddles for as long as it is resident
        duration_s = rng.uniform(WINDOW_S, 4 * WINDOW_S)
    bytes_transferred = 0 if rng.random() < 0.1 else rng.randrange(1, 400_000)
    if malformed and rng.random() < 0.08:
        bytes_transferred = -bytes_transferred - 1
    min_rtt = rng.choice((0.0, rng.uniform(0.01, 0.2)))
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=reported_at,
        bytes_transferred=bytes_transferred,
        duration_s=duration_s,
        mean_rtt_s=min_rtt + rng.uniform(0.0, 0.1),
        min_rtt_s=min_rtt,
        loss_indicator=rng.choice((0.0, rng.random())),
    )


def _draw_batch(rng, first_id, now, *, malformed):
    """A merge's batch: one report up to the size of a post-heal catch-up,
    some sharing an instant with another, in canonical replay order."""
    reports = [
        _draw_report(rng, first_id + i, now, malformed=malformed)
        for i in range(rng.choice((1, 2, 5, 20, 80)))
    ]
    for i in range(1, len(reports)):
        if rng.random() < 0.25:
            tied = reports[rng.randrange(i)].reported_at
            reports[i] = replace(reports[i], reported_at=tied)
    return sorted(reports, key=_report_key)


def _pair(robust):
    sim = Simulator()
    knobs = dict(window_s=WINDOW_S, lease_ttl_s=LEASE_TTL_S, robust=robust)
    return sim, ContextServer(sim, CAPACITY_BPS, **knobs), RescanServer(
        sim, CAPACITY_BPS, **knobs
    )


def _assert_same_answers(server, reference, where):
    served, expected = server.current_context(), reference.current_context()
    for name in (
        "utilization",
        "queue_delay_s",
        "competing_senders",
        "timestamp",
        "fair_share_mbps",
    ):
        assert getattr(served, name) == getattr(expected, name), (where, name)
    assert server.reports_rejected == reference.reports_rejected, where
    # The state lease expiry and absorption write: the outstanding leases
    # and the window's reports, in order.
    assert [ts for ts, _ in sorted(server._leases)] == list(reference._leases), where
    assert list(server._reports) == list(reference._reports), where


def _run_program(seed, robust, n_ops, check_probability, ops=_OPS):
    rng = random.Random(seed)
    sim, server, reference = _pair(robust)
    compared = 0
    for step in range(n_ops):
        _advance_clock(rng, sim)
        op = rng.choice(ops)
        where = (seed, step, op, sim.now)
        malformed = robust
        if op == "lookup":
            assert server.lookup() == reference.lookup(), where
        elif op == "utilization":
            # Bare estimator call: how replica_divergence() reaches a server.
            assert (
                server.estimated_utilization() == reference.estimated_utilization()
            ), where
        elif op == "batch":
            batch = _draw_batch(rng, 1000 * step, sim.now, malformed=malformed)
            server.absorb(batch)
            for report in batch:
                reference.absorb(report)
        elif op == "absorb":  # a batch of one
            report = _draw_report(rng, step, sim.now, malformed=malformed)
            server.absorb([report])
            reference.absorb(report)
        else:
            report = _draw_report(rng, step, sim.now, malformed=malformed)
            server.report(report)
            reference.report(report)
        if rng.random() < check_probability:
            _assert_same_answers(server, reference, where)
            compared += 1
    _assert_same_answers(server, reference, (seed, "end"))
    return compared


@pytest.mark.parametrize("robust", [False, True], ids=["ewma", "robust"])
@pytest.mark.parametrize("seed", range(12))
def test_every_answer_equals_the_rescan(seed, robust):
    # Checked after every operation: each comparison also advances the
    # window on both sides, so this is the densest interleaving.
    assert _run_program(seed, robust, n_ops=500, check_probability=1.0) == 500


@pytest.mark.parametrize("robust", [False, True], ids=["ewma", "robust"])
@pytest.mark.parametrize("seed", range(100, 108))
def test_sparse_estimates_equal_the_rescan(seed, robust):
    # Estimates taken rarely: many inserts, expiries and clock jumps pile
    # up between two refreshes of the clock-dependent contributions.
    _run_program(seed, robust, n_ops=700, check_probability=0.05)


@pytest.mark.parametrize("robust", [False, True], ids=["ewma", "robust"])
@pytest.mark.parametrize("seed", range(200, 206))
def test_batched_absorb_equals_one_at_a_time(seed, robust):
    # Batches land behind late local reports (an unsorted deque), before
    # future-dated ones, and mix expired, zero-duration, longer-than-
    # window and (robust) invalid reports with same-instant ties.
    assert _run_program(seed, robust, n_ops=300, check_probability=1.0, ops=_BATCH_OPS) == 300


def test_batches_move_residents_and_their_clock_dependence():
    """The generator does what the test above relies on: batches land
    behind resident reports, clock-dependent ones among them, in a deque
    that late local reports left out of order."""
    rng = random.Random(200)
    sim, server, _ = _pair(False)
    moved = clocked_moved = unsorted = 0
    for step in range(400):
        _advance_clock(rng, sim)
        if rng.random() < 0.7:
            server.report(_draw_report(rng, step, sim.now, malformed=False))
            continue
        batch = _draw_batch(rng, 1000 * step, sim.now, malformed=False)
        admitted = [r for r in batch if r.reported_at >= sim.now - WINDOW_S]
        server._expire_old_reports()
        resident = list(server._reports)
        unsorted += any(a.reported_at > b.reported_at for a, b in zip(resident, resident[1:]))
        index = len(resident)
        while admitted and index and resident[index - 1].reported_at > admitted[0].reported_at:
            index -= 1
            moved += 1
            clocked_moved += index + server._popped in server._clocked
        server.absorb(batch)
    assert moved > 1000 and clocked_moved > 200 and unsorted > 50, (moved, clocked_moved, unsorted)


def test_programs_reach_a_full_expiring_straddling_window():
    """The generator does what the tests above rely on."""
    rng = random.Random(0)
    sim, _, reference = _pair(False)
    resident, straddling, expired = 0, 0, False
    for step in range(500):
        _advance_clock(rng, sim)
        before = len(reference._reports)
        reference.report(_draw_report(rng, step, sim.now, malformed=False))
        expired = expired or len(reference._reports) <= before
        resident = max(resident, len(reference._reports))
        window_start = sim.now - WINDOW_S
        straddling = max(
            straddling,
            sum(
                1
                for r in reference._reports
                if r.reported_at - r.duration_s < window_start <= r.reported_at
            ),
        )
    assert resident >= 100 and straddling >= 5 and expired
