"""Causal post-mortem over a flight-recorder dump.

Given a dump produced by an anomaly funnel (watchdog trip, invariant
violation, envelope failure, quarantined sweep point) or by
:meth:`~repro.flightrec.recorder.FlightRecorder.dump`, this module
reconstructs a per-flow timeline and attributes each *stall* — a gap in
a flow's activity longer than a threshold — to a cause, with sim-time
evidence spans backing every attribution.

Attribution taxonomy, in precedence order (a stall with evidence in
several categories is attributed to the highest):

1. ``injected-fault`` — the stall overlaps a fault window
   (``fault_begin``/``fault_end`` edges, or the ``start_s``/``end_s``
   carried on any fault event's detail).
2. ``failover`` — a failover ran, or every replica (the one server of
   a single-server plane included) was suspended, while the flow was
   silent.
3. ``queue-buildup`` — the flow's packets were drop-tailed at a queue
   whose occupancy was at capacity.
4. ``rto-backoff`` — the flow's own retransmission timer fired; the
   silence is Karn backoff.
5. ``context-degradation`` — the Phi context client was in a degraded
   mode (stale/fallback/distrusted) around the stall.
6. ``unknown`` — no recorded signal explains the gap (often evidence
   evicted from a ring; the dump header's eviction counts say so).

Pure analysis: everything here reads a dump, nothing touches the live
recorder, so it can run anywhere (CI, a laptop, long after the run).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..simnet.bounds import check
from .recorder import load_dump

#: Default inter-activity gap that counts as a stall, in sim seconds.
#: Chosen above MIN_RTO_S (0.2 s) so a single healthy RTO-scale quiet
#: period does not flag.
DEFAULT_STALL_THRESHOLD_S = 0.25

#: Phi context modes that count as degraded service.
DEGRADED_MODES = frozenset({"stale", "fallback", "distrusted"})

#: Attribution causes, highest precedence first.
CAUSES = (
    "injected-fault",
    "failover",
    "queue-buildup",
    "rto-backoff",
    "context-degradation",
    "unknown",
)


def _span(kind: str, start: float, end: float, description: str) -> Dict[str, Any]:
    return {"kind": kind, "start": start, "end": end, "description": description}


def fault_windows(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every distinct injected-fault window visible in the dump.

    Windows come from two places: ``fault_begin``/``fault_end`` edge
    pairs (matched per component+fault), and the ``start_s``/``end_s``
    a fault event's detail carries — the latter survives even when the
    edges themselves were evicted from the ring.
    """
    windows: Dict[Tuple[str, str, float, float], Dict[str, Any]] = {}
    open_begins: Dict[Tuple[str, str], float] = {}
    for record in records:
        kind = record.get("kind", "")
        if not kind.startswith("fault"):
            continue
        detail = record.get("detail") or {}
        fault = str(detail.get("fault", "fault"))
        component = str(record.get("component", ""))
        start_s = detail.get("start_s")
        end_s = detail.get("end_s")
        if isinstance(start_s, (int, float)) and isinstance(end_s, (int, float)):
            key = (fault, component, float(start_s), float(end_s))
            windows.setdefault(
                key,
                {
                    "fault": fault,
                    "component": component,
                    "start": float(start_s),
                    "end": float(end_s),
                },
            )
            continue
        # A detail-less edge: pair begin/end edges observationally.
        if kind == "fault_begin":
            open_begins[(fault, component)] = float(record["t"])
        elif kind == "fault_end":
            begun = open_begins.pop((fault, component), None)
            if begun is not None:
                key = (fault, component, begun, float(record["t"]))
                windows.setdefault(
                    key,
                    {
                        "fault": fault,
                        "component": component,
                        "start": begun,
                        "end": float(record["t"]),
                    },
                )
    return sorted(windows.values(), key=lambda w: (w["start"], w["end"]))


def _mode_spans(
    phi_records: List[Dict[str, Any]], horizon: float
) -> List[Tuple[float, float, str]]:
    """(start, end, mode) spans of degraded Phi context modes."""
    spans: List[Tuple[float, float, str]] = []
    current: Optional[Tuple[float, str]] = None
    for record in phi_records:
        if record.get("kind") != "mode":
            continue
        detail = record.get("detail") or {}
        t = float(record["t"])
        mode = str(detail.get("to", ""))
        if current is not None:
            spans.append((current[0], t, current[1]))
            current = None
        if mode in DEGRADED_MODES:
            current = (t, mode)
    if current is not None:
        spans.append((current[0], horizon, current[1]))
    return spans


def _overlap(a0: float, a1: float, b0: float, b1: float) -> bool:
    return a0 < b1 and b0 < a1


class _Timeline:
    """One flow's reconstructed lifecycle."""

    __slots__ = ("flow_id", "times", "start", "end", "completed", "aborted", "events")

    def __init__(self, flow_id: int) -> None:
        self.flow_id = flow_id
        self.times: List[float] = []
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.completed = False
        self.aborted = False
        self.events = 0


def _build_timelines(records: List[Dict[str, Any]]) -> Dict[int, _Timeline]:
    timelines: Dict[int, _Timeline] = {}
    for record in records:
        flow_id = record.get("flow_id", -1)
        if not isinstance(flow_id, int) or flow_id < 0:
            continue
        layer = record.get("layer")
        if layer not in ("simnet", "transport"):
            continue
        timeline = timelines.get(flow_id)
        if timeline is None:
            timeline = timelines[flow_id] = _Timeline(flow_id)
        t = float(record["t"])
        timeline.times.append(t)
        timeline.events += 1
        kind = record.get("kind")
        if kind == "flow_start":
            timeline.start = t
        elif kind == "flow_end":
            timeline.end = t
            timeline.completed = True
        elif kind == "flow_abort":
            timeline.end = t
            timeline.aborted = True
    for timeline in timelines.values():
        timeline.times.sort()
    return timelines


def _attribute_stall(
    flow_id: int,
    gap_start: float,
    gap_end: float,
    threshold: float,
    windows: List[Dict[str, Any]],
    mode_spans: List[Tuple[float, float, str]],
    phi_instants: List[Dict[str, Any]],
    flow_drops: List[Dict[str, Any]],
    flow_rtos: List[Dict[str, Any]],
    flow_context: List[Dict[str, Any]],
) -> Tuple[str, List[Dict[str, Any]]]:
    """The cause of one stall plus every evidence span found for it.

    The evidence window opens one threshold *before* the gap starts:
    the event that silences a flow (a drop, a failover) is recorded
    at or just before the last activity, not inside the silence.
    """
    ev_start = gap_start - threshold
    evidence: List[Dict[str, Any]] = []
    by_cause: Dict[str, bool] = {}

    for window in windows:
        if _overlap(ev_start, gap_end, window["start"], window["end"]):
            by_cause["injected-fault"] = True
            evidence.append(
                _span(
                    "injected-fault",
                    window["start"],
                    window["end"],
                    f"{window['fault']} on {window['component']} active "
                    f"[{window['start']:.3f}, {window['end']:.3f}]s",
                )
            )
    for record in phi_instants:
        t = float(record["t"])
        if ev_start <= t <= gap_end:
            by_cause["failover"] = True
            kind = record.get("kind")
            what = (
                "all replicas suspended"
                if kind == "all_suspended"
                else f"failover {record.get('detail') or {}}"
            )
            evidence.append(_span("failover", t, t, f"{what} at {t:.3f}s"))
    for record in flow_drops:
        t = float(record["t"])
        if ev_start <= t <= gap_end:
            by_cause["queue-buildup"] = True
            detail = record.get("detail") or {}
            evidence.append(
                _span(
                    "queue-buildup",
                    t,
                    t,
                    f"packet {record.get('packet_id')} drop-tailed at "
                    f"{detail.get('queued_bytes')}B queued "
                    f"(capacity {detail.get('capacity_bytes')}B) at {t:.3f}s",
                )
            )
    for record in flow_rtos:
        t = float(record["t"])
        if ev_start <= t <= gap_end:
            by_cause["rto-backoff"] = True
            detail = record.get("detail") or {}
            evidence.append(
                _span(
                    "rto-backoff",
                    t,
                    t,
                    f"RTO fired at {t:.3f}s (next timer {detail.get('rto_s')}s)",
                )
            )
    for span_start, span_end, mode in mode_spans:
        if _overlap(ev_start, gap_end, span_start, span_end):
            by_cause["context-degradation"] = True
            evidence.append(
                _span(
                    "context-degradation",
                    span_start,
                    span_end,
                    f"context mode {mode} [{span_start:.3f}, {span_end:.3f}]s",
                )
            )
    for record in flow_context:
        detail = record.get("detail") or {}
        if detail.get("decision") in DEGRADED_MODES:
            t = float(record["t"])
            by_cause["context-degradation"] = True
            evidence.append(
                _span(
                    "context-degradation",
                    t,
                    t,
                    f"flow started under {detail.get('decision')} context "
                    f"at {t:.3f}s",
                )
            )

    for cause in CAUSES:
        if by_cause.get(cause):
            return cause, evidence
    return "unknown", evidence


def analyze(
    header: Dict[str, Any],
    records: List[Dict[str, Any]],
    *,
    stall_threshold_s: float = DEFAULT_STALL_THRESHOLD_S,
    dump_path: str = "",
) -> Dict[str, Any]:
    """Reconstruct per-flow timelines and attribute every stall."""
    check("stall_threshold_s", stall_threshold_s, gt=0)
    sim_time = header.get("sim_time")
    times = [float(r["t"]) for r in records] or [0.0]
    horizon = float(sim_time) if isinstance(sim_time, (int, float)) else max(times)

    phi_records = [r for r in records if r.get("layer") == "phi"]
    windows = fault_windows(records)
    mode_spans = _mode_spans(phi_records, horizon)
    phi_instants = [
        r for r in phi_records if r.get("kind") in ("failover", "all_suspended")
    ]
    context_events = [r for r in phi_records if r.get("kind") == "context"]

    timelines = _build_timelines(records)
    flows: List[Dict[str, Any]] = []
    cause_counts: Dict[str, int] = {}
    total_stalls = 0
    for flow_id in sorted(timelines):
        timeline = timelines[flow_id]
        first = timeline.times[0]
        start = timeline.start if timeline.start is not None else first
        # An unfinished flow extends to the dump horizon: the silence
        # from its last recorded activity to the anomaly is exactly the
        # stall a post-mortem is for.
        end = (
            timeline.end
            if timeline.end is not None
            else max(timeline.times[-1], horizon)
        )
        flow_drops = [
            r
            for r in records
            if r.get("layer") == "simnet"
            and r.get("kind") == "drop"
            and r.get("flow_id") == flow_id
        ]
        flow_rtos = [
            r
            for r in records
            if r.get("layer") == "transport"
            and r.get("kind") == "rto"
            and r.get("flow_id") == flow_id
        ]
        flow_context = [
            r
            for r in context_events
            if (r.get("detail") or {}).get("flow_id") == flow_id
        ]
        # Gaps between consecutive activity stamps, plus the final gap
        # to the flow's end (an unfinished flow silent at dump time is
        # exactly the stall a post-mortem is for).
        marks = [t for t in timeline.times if start <= t <= end]
        if not marks:
            marks = [start]
        checkpoints = marks + ([end] if end > marks[-1] else [])
        stalls: List[Dict[str, Any]] = []
        for previous, current in zip(checkpoints, checkpoints[1:]):
            gap = current - previous
            if gap <= stall_threshold_s:
                continue
            cause, evidence = _attribute_stall(
                flow_id,
                previous,
                current,
                stall_threshold_s,
                windows,
                mode_spans,
                phi_instants,
                flow_drops,
                flow_rtos,
                flow_context,
            )
            stalls.append(
                {
                    "start": previous,
                    "end": current,
                    "duration_s": gap,
                    "cause": cause,
                    "evidence": evidence,
                }
            )
            cause_counts[cause] = cause_counts.get(cause, 0) + 1
            total_stalls += 1
        flows.append(
            {
                "flow_id": flow_id,
                "start": start,
                "end": end,
                "completed": timeline.completed,
                "aborted": timeline.aborted,
                "events": timeline.events,
                "stalls": stalls,
            }
        )

    return {
        "dump": dump_path,
        "anomaly": {
            "reason": header.get("reason"),
            "sim_time": sim_time,
            "layers": header.get("layers"),
        },
        "stall_threshold_s": stall_threshold_s,
        "fault_windows": windows,
        "flows": flows,
        "summary": {
            "flows": len(flows),
            "stalls": total_stalls,
            "causes": cause_counts,
        },
    }


def analyze_dump(
    path: str,
    *,
    stall_threshold_s: float = DEFAULT_STALL_THRESHOLD_S,
) -> Dict[str, Any]:
    """Load a dump from disk and run :func:`analyze` over it."""
    header, records = load_dump(path)
    return analyze(
        header, records, stall_threshold_s=stall_threshold_s, dump_path=path
    )


def render_text(analysis: Dict[str, Any], flow: Optional[int] = None) -> str:
    """The war-room rendering: one readable block per flow with stalls."""
    lines: List[str] = []
    anomaly = analysis.get("anomaly") or {}
    lines.append(f"post-mortem: {analysis.get('dump') or '<in-memory>'}")
    lines.append(
        f"  anomaly: {anomaly.get('reason') or 'manual dump'}"
        + (
            f" at sim t={anomaly['sim_time']:.3f}s"
            if isinstance(anomaly.get("sim_time"), (int, float))
            else ""
        )
    )
    windows = analysis.get("fault_windows") or []
    if windows:
        lines.append(f"  injected faults: {len(windows)}")
        for window in windows:
            lines.append(
                f"    - {window['fault']} on {window['component']} "
                f"[{window['start']:.3f}, {window['end']:.3f}]s"
            )
    summary = analysis.get("summary") or {}
    lines.append(
        f"  flows: {summary.get('flows', 0)}, stalls: {summary.get('stalls', 0)}"
    )
    causes = summary.get("causes") or {}
    if causes:
        mix = ", ".join(f"{cause}={count}" for cause, count in sorted(causes.items()))
        lines.append(f"  stall causes: {mix}")
    for entry in analysis.get("flows", []):
        if flow is not None and entry["flow_id"] != flow:
            continue
        if flow is None and not entry["stalls"]:
            continue
        status = (
            "completed"
            if entry["completed"]
            else ("aborted" if entry.get("aborted") else "unfinished")
        )
        lines.append(
            f"  flow {entry['flow_id']} [{entry['start']:.3f}, "
            f"{entry['end']:.3f}]s {status}, {entry['events']} events"
        )
        for stall in entry["stalls"]:
            lines.append(
                f"    stall [{stall['start']:.3f}, {stall['end']:.3f}]s "
                f"({stall['duration_s']:.3f}s) -> {stall['cause']}"
            )
            for span in stall["evidence"]:
                lines.append(f"      * {span['description']}")
    return "\n".join(lines)
