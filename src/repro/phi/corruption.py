"""Semantic fault injection: a control plane that lies.

PR 1/2 made the control plane *unreachable* (loss, outages, partitions);
this module makes it *wrong*.  The distinction matters because the two
fail differently: an absent context degrades a sender to defaults, while
a corrupted context actively mistunes it — TCPTuner-style evidence says
acting on garbage parameters is worse than never coordinating at all.
Every corruptor here produces the kind of wrongness a real deployment
can see:

- :class:`BitFlipCorruptor` — a flipped bit in the encoded payload
  (memory/wire corruption): wild values, NaN, infinities, negatives.
- :class:`ScaleCorruptor` — unit/encoding mistakes (milliseconds read
  as seconds, bytes as kilobytes): plausible shapes, wrong magnitudes.
- :class:`FrozenContextCorruptor` — a stuck server: the first snapshot
  forever, re-stamped so staleness checks never fire.
- :class:`ReplayCorruptor` — plausible-but-stale history replayed with
  fresh timestamps (a lagging replica serving old state as current).
- :class:`AdversarialCorruptor` — a deliberate, internally-consistent
  lie that deflates (or inflates) the congestion picture; deflation is
  the dangerous direction, turning every sender aggressive under load.
- :class:`GarbageCorruptor` — unambiguously invalid payloads (NaN /
  infinite / negative fields), the easy case every guard must catch.
- :class:`ByzantineReporter` — a fraction of senders lie in their
  end-of-connection reports, poisoning the server's aggregates.

Corrupted snapshots are built with :func:`raw_context`, which bypasses
``CongestionContext.__post_init__`` exactly like a decoded wire payload
would — consumers must not rely on constructor validation, which is why
:class:`~repro.phi.guard.ContextGuard` exists.

All randomness comes from an injected ``numpy`` generator, so a sweep
point's corruption trace is a pure function of its seed (serial and
parallel sweeps stay bit-identical).
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import replace
from typing import Deque, Iterable, Optional, Sequence, Tuple

from ..simnet.bounds import check
from .context import CongestionContext
from .server import ConnectionReport

#: Context fields a corruptor may target (timestamp is handled apart:
#: corruptors re-stamp rather than scramble it, because a wrong clock is
#: what the staleness machinery already covers).
CONTEXT_VALUE_FIELDS = (
    "utilization",
    "queue_delay_s",
    "competing_senders",
    "fair_share_mbps",
)


def raw_context(
    utilization: float,
    queue_delay_s: float,
    competing_senders: float,
    timestamp: float,
    fair_share_mbps: Optional[float],
) -> CongestionContext:
    """A :class:`CongestionContext` built *without* constructor validation.

    Models a snapshot decoded straight off the wire: deserialization does
    not re-run ``__post_init__``, so a corrupted payload can carry NaN,
    infinities, negatives, or out-of-range values into the client.
    """
    context = object.__new__(CongestionContext)
    object.__setattr__(context, "utilization", float(utilization))
    object.__setattr__(context, "queue_delay_s", float(queue_delay_s))
    object.__setattr__(context, "competing_senders", float(competing_senders))
    object.__setattr__(context, "timestamp", float(timestamp))
    object.__setattr__(
        context,
        "fair_share_mbps",
        None if fair_share_mbps is None else float(fair_share_mbps),
    )
    return context


def _context_fields(context: CongestionContext) -> dict:
    return {
        "utilization": context.utilization,
        "queue_delay_s": context.queue_delay_s,
        "competing_senders": context.competing_senders,
        "timestamp": context.timestamp,
        "fair_share_mbps": context.fair_share_mbps,
    }


def flip_float_bit(value: float, bit: int) -> float:
    """Flip one bit of the IEEE-754 double encoding of ``value``."""
    if not 0 <= bit < 64:
        raise ValueError(f"bit must be in [0, 64): {bit}")
    (encoded,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", encoded ^ (1 << bit)))
    return flipped


class ContextCorruptor:
    """Base class: corrupts each lookup with probability ``severity``.

    ``severity`` in [0, 1] is the single knob the poisoned sweep turns:
    0 never corrupts, 1 corrupts every lookup.  Subclasses implement
    :meth:`_mutate` and may additionally scale their *magnitude* with
    severity where that is meaningful.
    """

    name = "corruptor"

    def __init__(self, rng, severity: float) -> None:
        self.rng = rng
        self.severity = check("severity", severity, ge=0, le=1)
        self.corrupted = 0
        self.passed = 0

    def corrupt(self, context: CongestionContext) -> CongestionContext:
        """Return the context the client actually receives."""
        if self.severity <= 0.0 or float(self.rng.random()) >= self.severity:
            self.passed += 1
            return self._observe(context)
        self.corrupted += 1
        return self._mutate(context)

    def _observe(self, context: CongestionContext) -> CongestionContext:
        """Hook for corruptors that track history even when passing through."""
        return context

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        raise NotImplementedError

    def _pick_field(self, context: CongestionContext) -> str:
        candidates = [
            name
            for name in CONTEXT_VALUE_FIELDS
            if getattr(context, name) is not None
        ]
        return candidates[int(self.rng.integers(0, len(candidates)))]


class BitFlipCorruptor(ContextCorruptor):
    """One flipped bit in one field's float64 encoding."""

    name = "bitflip"

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        fields = _context_fields(context)
        target = self._pick_field(context)
        bit = int(self.rng.integers(0, 64))
        fields[target] = flip_float_bit(fields[target], bit)
        return raw_context(**fields)


#: The largest unit error a :class:`ScaleCorruptor` makes, in decades.
MAX_DECADES = 3

#: Snapshots a :class:`ReplayCorruptor` remembers; it replays the oldest.
REPLAY_DEPTH = 16


class ScaleCorruptor(ContextCorruptor):
    """A power-of-ten unit error on one field (ms read as s, and so on)."""

    name = "scale"

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        fields = _context_fields(context)
        target = self._pick_field(context)
        decades = int(self.rng.integers(1, MAX_DECADES + 1))
        if bool(self.rng.random() < 0.5):
            decades = -decades
        fields[target] = fields[target] * (10.0 ** decades)
        return raw_context(**fields)


class FrozenContextCorruptor(ContextCorruptor):
    """A stuck server: the first snapshot forever, re-stamped as fresh.

    Re-stamping is the point — a frozen-but-honestly-timestamped snapshot
    would age out through the staleness TTL, so the dangerous failure is
    the one that keeps *claiming* freshness.
    """

    name = "frozen"

    def __init__(self, rng, severity: float) -> None:
        super().__init__(rng, severity)
        self._stuck: Optional[CongestionContext] = None

    def _observe(self, context: CongestionContext) -> CongestionContext:
        if self._stuck is None:
            self._stuck = context
        return context

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        if self._stuck is None:
            self._stuck = context
        fields = _context_fields(self._stuck)
        fields["timestamp"] = context.timestamp
        return raw_context(**fields)


class ReplayCorruptor(ContextCorruptor):
    """Plausible-but-stale history replayed with a fresh timestamp."""

    name = "replay"

    def __init__(self, rng, severity: float) -> None:
        super().__init__(rng, severity)
        self._history: Deque[CongestionContext] = deque(maxlen=REPLAY_DEPTH)

    def _observe(self, context: CongestionContext) -> CongestionContext:
        self._history.append(context)
        return context

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        self._history.append(context)
        stale = self._history[0]
        fields = _context_fields(stale)
        fields["timestamp"] = context.timestamp
        return raw_context(**fields)


class AdversarialCorruptor(ContextCorruptor):
    """A deliberate, internally-consistent lie about the weather.

    ``deflate`` (the dangerous direction) blends the context toward "the
    network is idle": utilization and queueing toward zero, one competing
    sender, fair share scaled up to match — every sender then picks the
    most aggressive policy entry while the link is actually loaded.
    ``inflate`` is the opposite lie (everything severe), which wastes
    capacity rather than causing losses.  The blend factor is the
    severity, so the lie hardens as the sweep's knob turns.

    The lie keeps ``fair_share ~= capacity / n`` self-consistent, so a
    cross-field guardrail cannot refute it; only outcome-driven trust
    (:mod:`repro.phi.trust`) catches this corruptor.
    """

    name = "deflate"

    def __init__(self, rng, severity: float, *, inflate: bool = False) -> None:
        super().__init__(rng, severity)
        self.inflate = inflate
        if inflate:
            self.name = "inflate"

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        blend = self.severity
        fields = _context_fields(context)
        if self.inflate:
            target_util = 1.0
            target_queue = 0.5
            target_n = max(fields["competing_senders"], 1.0) * 16.0
        else:
            target_util = 0.0
            target_queue = 0.0
            target_n = 1.0

        def toward(value: float, target: float) -> float:
            return value + (target - value) * blend

        n_before = max(1.0, fields["competing_senders"])
        fields["utilization"] = toward(fields["utilization"], target_util)
        fields["queue_delay_s"] = toward(fields["queue_delay_s"], target_queue)
        fields["competing_senders"] = toward(fields["competing_senders"], target_n)
        if fields["fair_share_mbps"] is not None:
            # Keep the lie self-consistent: fair share scales inversely
            # with the claimed sender count.
            capacity_proxy = fields["fair_share_mbps"] * n_before
            fields["fair_share_mbps"] = capacity_proxy / max(
                1.0, fields["competing_senders"]
            )
        return raw_context(**fields)


class GarbageCorruptor(ContextCorruptor):
    """Unambiguously invalid payloads: NaN, infinities, negatives.

    The easy case — anything a :class:`~repro.phi.guard.ContextGuard`
    must reject on sight.  With this corruptor at severity 1 a guarded
    client never acts on context at all, which makes the run
    bit-identical to the uncoordinated baseline (the safety floor).
    """

    name = "garbage"

    _POISONS = (math.nan, math.inf, -math.inf, -1.0, -1e12)

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        fields = _context_fields(context)
        target = self._pick_field(context)
        fields[target] = self._POISONS[int(self.rng.integers(0, len(self._POISONS)))]
        return raw_context(**fields)


class CompositeCorruptor(ContextCorruptor):
    """Pick one member corruptor per lookup (a mixed failure population).

    The composite owns the per-lookup corruption draw and invokes the
    chosen member's mutation directly; a member's own severity only
    matters where it scales *magnitude* (the adversarial blend), so
    members are built at the sweep's severity.
    """

    name = "composite"

    def __init__(
        self, rng, severity: float, members: Sequence[ContextCorruptor]
    ) -> None:
        super().__init__(rng, severity)
        if not members:
            raise ValueError("composite needs at least one member corruptor")
        self.members = list(members)

    def _observe(self, context: CongestionContext) -> CongestionContext:
        for member in self.members:
            member._observe(context)
        return context

    def _mutate(self, context: CongestionContext) -> CongestionContext:
        member = self.members[int(self.rng.integers(0, len(self.members)))]
        member.corrupted += 1
        return member._mutate(context)


#: Corruption modes accepted by :func:`make_context_corruptor`.
CONTEXT_CORRUPTION_MODES = (
    "bitflip",
    "scale",
    "frozen",
    "replay",
    "deflate",
    "inflate",
    "garbage",
)

DEFAULT_MODES: Tuple[str, ...] = ("bitflip", "scale", "frozen", "replay", "deflate")


def make_context_corruptor(
    modes: Iterable[str], rng, severity: float
) -> ContextCorruptor:
    """Build the corruptor for a mode list (composite when several)."""
    mode_list = list(modes)
    if not mode_list:
        raise ValueError("need at least one corruption mode")
    builders = {
        "bitflip": BitFlipCorruptor,
        "scale": ScaleCorruptor,
        "frozen": FrozenContextCorruptor,
        "replay": ReplayCorruptor,
        "deflate": lambda r, s: AdversarialCorruptor(r, s, inflate=False),
        "inflate": lambda r, s: AdversarialCorruptor(r, s, inflate=True),
        "garbage": GarbageCorruptor,
    }
    unknown = [mode for mode in mode_list if mode not in builders]
    if unknown:
        raise ValueError(
            f"unknown corruption mode(s) {unknown}; "
            f"known: {', '.join(CONTEXT_CORRUPTION_MODES)}"
        )
    if len(mode_list) == 1:
        return builders[mode_list[0]](rng, severity)
    # The composite owns the per-lookup corruption draw; member severity
    # only matters where it scales magnitude (the adversarial blend).
    members = [builders[mode](rng, severity) for mode in mode_list]
    return CompositeCorruptor(rng, severity, members)


class ByzantineReporter:
    """Poison a fraction of :class:`ConnectionReport`s (lying senders).

    Models a Byzantine sub-population: each report is poisoned with
    probability ``fraction``, independent of the context-corruption
    severity (the two axes of the X6 sweep).  Poisoned reports come in
    three flavours, chosen per report:

    - **inflate**: claim a huge transfer with no loss and no queueing,
      dragging the server's utilization estimate up and its congestion
      estimates down;
    - **understate**: claim almost nothing happened, starving the
      estimates;
    - **garbage**: structurally invalid numbers (NaN / negative fields)
      that unsanitized aggregation would swallow whole.
    """

    name = "byzantine"

    def __init__(self, rng, fraction: float) -> None:
        self.rng = rng
        self.fraction = check("fraction", fraction, ge=0, le=1)
        self.poisoned = 0
        self.passed = 0

    def corrupt(self, report: ConnectionReport) -> ConnectionReport:
        if self.fraction <= 0.0 or float(self.rng.random()) >= self.fraction:
            self.passed += 1
            return report
        self.poisoned += 1
        flavour = int(self.rng.integers(0, 3))
        if flavour == 0:  # inflate: huge clean transfer
            return replace(
                report,
                bytes_transferred=int(
                    report.bytes_transferred * 1000.0 + 1
                ),
                mean_rtt_s=report.min_rtt_s,
                loss_indicator=0.0,
            )
        if flavour == 1:  # understate: almost nothing happened
            return replace(
                report,
                bytes_transferred=0,
                duration_s=min(report.duration_s, 1e-3),
                mean_rtt_s=report.min_rtt_s,
                loss_indicator=0.0,
            )
        # garbage: structurally invalid numbers
        return replace(
            report,
            bytes_transferred=-1,
            duration_s=-report.duration_s,
            mean_rtt_s=math.nan,
            loss_indicator=2.0,
        )


class CorruptionLayer:
    """The pluggable bundle a :class:`~repro.phi.channel.ControlChannel` hosts.

    Sits on the RPC payloads — lookup responses on the way in, reports on
    the way out — alongside the channel's existing loss/outage faults.
    Either side may be ``None`` (no corruption on that path).
    """

    def __init__(
        self,
        *,
        context_corruptor: Optional[ContextCorruptor] = None,
        report_corruptor: Optional[ByzantineReporter] = None,
    ) -> None:
        self.context_corruptor = context_corruptor
        self.report_corruptor = report_corruptor

    def corrupt_context(self, context: CongestionContext) -> CongestionContext:
        if self.context_corruptor is None:
            return context
        return self.context_corruptor.corrupt(context)

    def corrupt_report(self, report: ConnectionReport) -> ConnectionReport:
        if self.report_corruptor is None:
            return report
        return self.report_corruptor.corrupt(report)

    @property
    def contexts_corrupted(self) -> int:
        corruptor = self.context_corruptor
        return 0 if corruptor is None else corruptor.corrupted

    @property
    def reports_poisoned(self) -> int:
        reporter = self.report_corruptor
        return 0 if reporter is None else reporter.poisoned
