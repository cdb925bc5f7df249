"""Tests for semantic fault injection (corruptors and Byzantine reports)."""

import math

import numpy as np
import pytest

from repro.phi.channel import ControlChannel
from repro.phi.context import CongestionContext
from repro.phi.corruption import (
    CONTEXT_CORRUPTION_MODES,
    AdversarialCorruptor,
    BitFlipCorruptor,
    ByzantineReporter,
    CompositeCorruptor,
    CorruptionLayer,
    FrozenContextCorruptor,
    GarbageCorruptor,
    ReplayCorruptor,
    ScaleCorruptor,
    flip_float_bit,
    make_context_corruptor,
    raw_context,
)
from repro.phi.server import ConnectionReport
from repro.simnet import Simulator


def rng(seed=7):
    return np.random.default_rng(seed)


def honest(timestamp=0.0):
    return CongestionContext(
        utilization=0.6,
        queue_delay_s=0.04,
        competing_senders=8.0,
        timestamp=timestamp,
        fair_share_mbps=1.875,
    )


def make_report(flow_id=1, reported_at=1.0):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=reported_at,
        bytes_transferred=100_000,
        duration_s=1.0,
        mean_rtt_s=0.18,
        min_rtt_s=0.15,
        loss_indicator=0.01,
    )


class TestRawContext:
    def test_bypasses_validation(self):
        ctx = raw_context(float("nan"), -5.0, math.inf)
        assert math.isnan(ctx.utilization)
        assert ctx.queue_delay_s == -5.0
        assert math.isinf(ctx.competing_senders)

    def test_constructor_now_rejects_the_same_values(self):
        with pytest.raises(ValueError):
            CongestionContext(
                utilization=float("nan"), queue_delay_s=0.0, competing_senders=1.0
            )


class TestFlipFloatBit:
    def test_round_trip(self):
        flipped = flip_float_bit(1.0, 3)
        assert flipped != 1.0
        assert flip_float_bit(flipped, 3) == 1.0

    def test_sign_bit(self):
        assert flip_float_bit(2.5, 63) == -2.5

    def test_bit_range_validated(self):
        with pytest.raises(ValueError):
            flip_float_bit(1.0, 64)


class TestSeverityGate:
    def test_severity_zero_never_corrupts(self):
        corruptor = GarbageCorruptor(rng(), 0.0)
        for _ in range(50):
            assert corruptor.corrupt(honest()) is not None
        assert corruptor.corrupted == 0
        assert corruptor.passed == 50

    def test_severity_one_always_corrupts(self):
        corruptor = GarbageCorruptor(rng(), 1.0)
        for _ in range(50):
            corruptor.corrupt(honest())
        assert corruptor.corrupted == 50
        assert corruptor.passed == 0

    def test_severity_validated(self):
        with pytest.raises(ValueError):
            GarbageCorruptor(rng(), 1.5)

    def test_same_seed_same_trace(self):
        a = BitFlipCorruptor(rng(3), 0.5)
        b = BitFlipCorruptor(rng(3), 0.5)
        outs_a = [a.corrupt(honest(t)) for t in range(20)]
        outs_b = [b.corrupt(honest(t)) for t in range(20)]
        assert outs_a == outs_b


class TestIndividualCorruptors:
    def test_bitflip_changes_exactly_one_field(self):
        corruptor = BitFlipCorruptor(rng(), 1.0)
        before = honest()
        after = corruptor.corrupt(before)
        diffs = [
            name
            for name in (
                "utilization", "queue_delay_s", "competing_senders",
                "fair_share_mbps",
            )
            if getattr(after, name) != getattr(before, name)
            and not (
                isinstance(getattr(after, name), float)
                and math.isnan(getattr(after, name))
                and math.isnan(getattr(before, name))
            )
        ]
        assert len(diffs) == 1
        assert after.timestamp == before.timestamp

    def test_scale_is_power_of_ten(self):
        corruptor = ScaleCorruptor(rng(), 1.0, max_decades=2)
        before = honest()
        after = corruptor.corrupt(before)
        changed = [
            (getattr(after, n), getattr(before, n))
            for n in ("utilization", "queue_delay_s", "competing_senders",
                      "fair_share_mbps")
            if getattr(after, n) != getattr(before, n)
        ]
        assert len(changed) == 1
        new, old = changed[0]
        assert new / old == pytest.approx(10.0) or new / old == pytest.approx(
            0.1
        ) or new / old == pytest.approx(100.0) or new / old == pytest.approx(0.01)

    def test_frozen_serves_first_snapshot_restamped(self):
        corruptor = FrozenContextCorruptor(rng(), 1.0)
        first = honest(timestamp=1.0)
        corruptor.corrupt(first)
        later = CongestionContext(
            utilization=0.9, queue_delay_s=0.3, competing_senders=20.0,
            timestamp=50.0,
        )
        out = corruptor.corrupt(later)
        assert out.utilization == first.utilization
        assert out.competing_senders == first.competing_senders
        assert out.timestamp == 50.0  # claims freshness

    def test_replay_serves_oldest_history(self):
        corruptor = ReplayCorruptor(rng(42), 0.0, depth=4)
        snapshots = [honest(timestamp=float(t)) for t in range(4)]
        for snap in snapshots:
            corruptor.corrupt(snap)  # severity 0: pure observation
        corruptor.severity = 1.0
        out = corruptor.corrupt(honest(timestamp=99.0))
        # History window slid: oldest retained is snapshots[1].
        assert out.utilization == snapshots[1].utilization
        assert out.timestamp == 99.0

    def test_deflate_full_severity_claims_idle_network(self):
        corruptor = AdversarialCorruptor(rng(), 1.0)
        out = corruptor.corrupt(honest())
        assert out.utilization == 0.0
        assert out.queue_delay_s == 0.0
        assert out.competing_senders == 1.0

    def test_deflate_keeps_fair_share_consistent(self):
        corruptor = AdversarialCorruptor(rng(), 1.0)
        before = honest()
        out = corruptor.corrupt(before)
        capacity = before.fair_share_mbps * before.competing_senders
        assert out.fair_share_mbps == pytest.approx(
            capacity / max(1.0, out.competing_senders)
        )

    def test_inflate_claims_severe_congestion(self):
        corruptor = AdversarialCorruptor(rng(), 1.0, inflate=True)
        out = corruptor.corrupt(honest())
        assert out.utilization == 1.0
        assert out.competing_senders > honest().competing_senders

    def test_garbage_produces_invalid_values(self):
        corruptor = GarbageCorruptor(rng(), 1.0)
        saw_invalid = 0
        for _ in range(30):
            out = corruptor.corrupt(honest())
            values = [
                out.utilization, out.queue_delay_s, out.competing_senders,
                out.fair_share_mbps,
            ]
            if any(not math.isfinite(v) or v < 0 for v in values):
                saw_invalid += 1
        assert saw_invalid == 30


class TestComposite:
    def test_spreads_over_members(self):
        members = [
            BitFlipCorruptor(rng(1), 1.0),
            GarbageCorruptor(rng(2), 1.0),
        ]
        composite = CompositeCorruptor(rng(3), 1.0, members)
        for _ in range(40):
            composite.corrupt(honest())
        assert composite.corrupted == 40
        assert all(m.corrupted > 0 for m in members)
        assert sum(m.corrupted for m in members) == 40

    def test_requires_members(self):
        with pytest.raises(ValueError):
            CompositeCorruptor(rng(), 1.0, [])


class TestFactory:
    def test_single_mode(self):
        corruptor = make_context_corruptor(["garbage"], rng(), 0.5)
        assert isinstance(corruptor, GarbageCorruptor)

    def test_multiple_modes_compose(self):
        corruptor = make_context_corruptor(["bitflip", "scale"], rng(), 0.5)
        assert isinstance(corruptor, CompositeCorruptor)
        assert len(corruptor.members) == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            make_context_corruptor(["gremlins"], rng(), 0.5)

    def test_all_advertised_modes_build(self):
        for mode in CONTEXT_CORRUPTION_MODES:
            make_context_corruptor([mode], rng(), 0.5)


class TestByzantineReporter:
    def test_fraction_zero_never_poisons(self):
        reporter = ByzantineReporter(rng(), 0.0)
        report = make_report()
        for _ in range(20):
            assert reporter.corrupt(report) is report
        assert reporter.poisoned == 0

    def test_fraction_one_always_poisons(self):
        reporter = ByzantineReporter(rng(), 1.0)
        for i in range(20):
            poisoned = reporter.corrupt(make_report(i))
            assert poisoned != make_report(i)
        assert reporter.poisoned == 20

    def test_flavours_cover_inflate_understate_garbage(self):
        reporter = ByzantineReporter(rng(11), 1.0)
        inflated = understated = garbage = 0
        for i in range(60):
            out = reporter.corrupt(make_report(i))
            if out.bytes_transferred < 0:
                garbage += 1
            elif out.bytes_transferred == 0:
                understated += 1
            else:
                inflated += 1
        assert inflated and understated and garbage

    def test_validation(self):
        with pytest.raises(ValueError):
            ByzantineReporter(rng(), 1.5)
        with pytest.raises(ValueError):
            ByzantineReporter(rng(), 0.5, magnitude=0.0)


class TestCorruptionLayer:
    def test_none_sides_pass_through(self):
        layer = CorruptionLayer()
        ctx, report = honest(), make_report()
        assert layer.corrupt_context(ctx) is ctx
        assert layer.corrupt_report(report) is report
        assert layer.contexts_corrupted == 0
        assert layer.reports_poisoned == 0

    def test_counters_surface_member_activity(self):
        layer = CorruptionLayer(
            context_corruptor=GarbageCorruptor(rng(1), 1.0),
            report_corruptor=ByzantineReporter(rng(2), 1.0),
        )
        layer.corrupt_context(honest())
        layer.corrupt_report(make_report())
        assert layer.contexts_corrupted == 1
        assert layer.reports_poisoned == 1

    def test_corrupting_source_wraps_backend(self):
        """A channel hosting a layer lies on both paths of its backend."""

        class Backend:
            def __init__(self):
                self.reports = []

            def lookup(self):
                return honest()

            def report(self, report):
                self.reports.append(report)

        backend = Backend()
        layer = CorruptionLayer(
            context_corruptor=AdversarialCorruptor(rng(1), 1.0),
            report_corruptor=ByzantineReporter(rng(2), 1.0),
        )
        source = ControlChannel(Simulator(), backend, corruption=layer)
        assert source.call_lookup().value.utilization == 0.0
        assert source.call_report(make_report()).ok
        assert backend.reports[0] != make_report()
        assert (layer.contexts_corrupted, layer.reports_poisoned) == (1, 1)
