"""Incident report rendering.

Turns the detector/localizer output into the operator-facing artifact a
"war room" consumes: a plain-text incident report naming the affected
population, the timeline, and severity — the human end of the Figure-5
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import BIN_MINUTES
from .localize import LocalizedEvent


def _format_duration(minutes: float) -> str:
    if minutes < 60:
        return f"{minutes:.0f} minutes"
    hours = minutes / 60.0
    return f"{hours:.1f} hours"


@dataclass(frozen=True)
class IncidentReport:
    """One rendered incident."""

    title: str
    body: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.title}\n{self.body}"


def severity_grade(drop_fraction: float) -> str:
    """Operator severity label from the mean request drop."""
    if not 0 <= drop_fraction <= 1:
        raise ValueError(f"drop fraction must be in [0, 1]: {drop_fraction}")
    if drop_fraction >= 0.8:
        return "SEV-1 (blackout)"
    if drop_fraction >= 0.4:
        return "SEV-2 (major degradation)"
    if drop_fraction >= 0.1:
        return "SEV-3 (partial degradation)"
    return "SEV-4 (minor anomaly)"


def render_incident(event: LocalizedEvent) -> IncidentReport:
    """Render one localized event as an operator incident report."""
    minutes = event.duration_bins * BIN_MINUTES
    start_min = event.start_bin * BIN_MINUTES
    scope = event.describe()
    grade = severity_grade(event.mean_drop_fraction)

    lines = [
        f"severity : {grade}",
        f"scope    : {scope}",
        f"impact   : ~{event.mean_drop_fraction:.0%} of requests lost "
        f"across {event.affected_slices} telemetry slice(s)",
        f"window   : t+{start_min} min for {_format_duration(minutes)}",
    ]
    if event.asn is not None and event.metro is not None:
        lines.append(
            "action   : engage peering/NOC contacts for the named ISP in "
            "the named metro; client-side mitigation (reroute via another "
            "POP) may apply"
        )
    elif event.service is not None:
        lines.append(
            "action   : service-specific regression suspected; page the "
            f"{event.service} on-call"
        )
    else:
        lines.append("action   : global event; check provider-side infrastructure")

    title = f"[{grade.split()[0]}] unreachability: {scope}"
    return IncidentReport(title=title, body="\n".join(lines))
