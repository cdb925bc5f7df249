"""Flight recorder & causal post-mortem for the reproduction.

One session-scoped recorder (carried on the active
:class:`~repro.telemetry.TelemetrySession`) captures causally linked
lifecycle events across the simnet, transport, and phi layers; anomaly
funnels — simcheck invariant violations, watchdog trips, safety-envelope
failures, quarantined sweep points — snapshot its rings to a strict-JSON
dump; and :mod:`repro.flightrec.postmortem` reconstructs per-flow
timelines from a dump and attributes each stall to a cause.

Recording is **off by default** and costs one session lookup plus one
bool per instrumentation site when off (see
:mod:`repro.flightrec.recorder` for the contract).  Scope it like
telemetry::

    from repro import flightrec

    with flightrec.use(autodump_path="flightrec-run.jsonl") as rec:
        run_cubic_experiment(...)
        rec.dump("flightrec-run.jsonl", reason="manual")

``cubic`` / ``phi --trace-out PATH`` do exactly this around one run, and
the ``repro postmortem <dump>`` CLI renders the analysis of any dump.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .. import telemetry as _telemetry
from .recorder import (
    NULL_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
    iter_layer,
    load_dump,
)

__all__ = [
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
    "capture",
    "iter_layer",
    "load_dump",
    "use",
]


@contextmanager
def use(
    recorder: Optional[FlightRecorder] = None,
    *,
    autodump_path: Optional[str] = None,
) -> Iterator[FlightRecorder]:
    """Scoped recording: activate a (new or given) recorder, restore after.

    The ambient metrics registry is preserved — recording composes with
    :func:`repro.telemetry.use` in either nesting order.
    """
    base = _telemetry.session()
    # ``is None``, not ``or``: a recorder holding no records is falsy.
    chosen = (
        recorder if recorder is not None
        else FlightRecorder(autodump_path=autodump_path)
    )
    combined = _telemetry.TelemetrySession(base.registry, chosen)
    with _telemetry.use(combined):
        yield chosen


@contextmanager
def capture(autodump_path: str) -> Iterator[FlightRecorder]:
    """Record, and guarantee a dump at ``autodump_path`` on any failure.

    The anomaly funnels (watchdog, simcheck, envelope checks) dump at
    the moment they fire; this wrapper additionally dumps on any other
    exception unwinding the scope, so a crashing worker still leaves a
    post-mortem artifact behind.
    """
    with use(autodump_path=autodump_path) as rec:
        try:
            yield rec
        except BaseException as exc:
            # An anomaly funnel (watchdog, invariant, envelope) that
            # already dumped recorded a more specific reason at the
            # moment it fired; don't overwrite it with the generic one.
            if rec.autodumps == 0:
                rec.maybe_autodump(f"{type(exc).__name__}: {exc}")
            raise
