"""Unified telemetry: metrics registry, flight recorder, run manifests.

The paper's operator runs the network by *observing* it (§2.1 IPFIX
aggregation, Fig. 5 diagnosis); this package gives the reproduction the
same property about itself.  One process-wide :class:`TelemetrySession`
holds the active :class:`~repro.telemetry.registry.MetricsRegistry`
(how many) and :class:`~repro.flightrec.recorder.FlightRecorder` (which
flow, when, what else was happening); instrumentation sites throughout
the engine, Phi control plane, and sweep runner fetch it via
:func:`session` and check ``.enabled``.

Telemetry is **off by default**.  Disabled, the session holds a
:class:`~repro.telemetry.registry.NullRegistry`, which no metric call
reaches (each sits under ``if tele.enabled``), and the shared
:data:`~repro.flightrec.recorder.NULL_RECORDER`, whose operations are
empty method calls — the hot path pays essentially nothing.  Enable
metrics scoped with :func:`use` (the CLI does this when given
``--metrics-out``); recording
is scoped with :func:`repro.flightrec.use` (``--trace-out``)::

    from repro import telemetry

    with telemetry.use() as tele:
        run_cubic_experiment(...)
        snapshot = tele.registry.snapshot()

Sweep workers each build their own session (processes don't share
memory); the runner merges their snapshots at its deterministic
by-index merge point via
:func:`~repro.telemetry.registry.merge_snapshots`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..flightrec.recorder import NULL_RECORDER, FlightRecorder
from .registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_S,
    UTILIZATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    flat_key,
    histogram_percentile,
    mean,
    merge_snapshots,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "NullRegistry",
    "TelemetrySession",
    "UTILIZATION_BUCKETS",
    "flat_key",
    "histogram_percentile",
    "mean",
    "merge_snapshots",
    "session",
    "use",
]


class TelemetrySession:
    """The collectors instrumentation writes to.

    ``flightrec`` is the session-scoped flight recorder; it stays the
    shared disabled :data:`~repro.flightrec.recorder.NULL_RECORDER`
    unless a recording scope (:func:`repro.flightrec.use`) installs a
    live one, so plain metrics sessions pay nothing for it.
    """

    __slots__ = ("registry", "flightrec", "enabled")

    def __init__(
        self,
        registry: MetricsRegistry,
        flightrec: Optional[FlightRecorder] = None,
    ) -> None:
        self.registry = registry  # never reassigned: ``enabled`` is read once
        self.flightrec = NULL_RECORDER if flightrec is None else flightrec
        self.enabled: bool = registry.enabled


#: The shared disabled session — module-level so `session()` never allocates.
_DISABLED = TelemetrySession(NullRegistry())
_active: TelemetrySession = _DISABLED


def session() -> TelemetrySession:
    """The currently active session (disabled no-op by default)."""
    return _active


@contextmanager
def use(
    session_to_use: Optional[TelemetrySession] = None,
) -> Iterator[TelemetrySession]:
    """Scoped telemetry: activate a (new or given) session, restore after.

    This is what sweep workers use around a single point evaluation so
    each point's metrics land in an isolated registry.  A fresh session
    inherits the ambient flight recorder: scoping metrics must not
    silently stop an active recording.
    """
    global _active
    previous = _active
    chosen = session_to_use or TelemetrySession(
        MetricsRegistry(), previous.flightrec
    )
    _active = chosen
    try:
        yield chosen
    finally:
        _active = previous
