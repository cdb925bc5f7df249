"""Post-mortem analyzer: stall detection, attribution precedence, rendering."""

import pytest

from repro import flightrec
from repro.phi.plane import schedule_unavailability
from repro.flightrec.postmortem import (
    CAUSES,
    analyze,
    analyze_dump,
    fault_windows,
    render_text,
)
from repro.flightrec.recorder import FlightRecorder
from repro.phi.channel import ControlChannel
from repro.phi.server import ContextServer
from repro.simnet import Outage, Simulator, make_data_packet
from repro.simnet.link import Link

from tests.simnet.linkdrop import LinkDrop


def _transport(kind, t, flow_id, detail=None):
    record = {"layer": "transport", "kind": kind, "t": t, "flow_id": flow_id,
              "cwnd": -1.0, "ssthresh": -1.0}
    if detail is not None:
        record["detail"] = detail
    return record


def _simnet(kind, t, component, flow_id=-1, packet_id=-1, detail=None):
    record = {"layer": "simnet", "kind": kind, "t": t, "component": component,
              "flow_id": flow_id, "packet_id": packet_id}
    if detail is not None:
        record["detail"] = detail
    return record


def _fault(kind, t, component, detail=None):
    record = {"layer": "fault", "kind": kind, "t": t, "component": component,
              "flow_id": -1, "packet_id": -1}
    if detail is not None:
        record["detail"] = detail
    return record


def _phi(kind, t, subject, detail=None):
    record = {"layer": "phi", "kind": kind, "t": t, "subject": subject}
    if detail is not None:
        record["detail"] = detail
    return record


def _flow(flow_id, *activity_times, start=None, end=None):
    """A minimal flow timeline: flow_start, activity marks, flow_end."""
    records = [_transport("flow_start", start if start is not None
                          else activity_times[0], flow_id)]
    records += [_simnet("transmit", t, "link", flow_id, i)
                for i, t in enumerate(activity_times)]
    if end is not None:
        records.append(_transport("flow_end", end, flow_id))
    return records


class TestFaultWindows:
    def test_window_from_detail(self):
        records = [_fault("fault_absorb", 1.2, "bottleneck",
                          {"fault": "Outage", "start_s": 1.0, "end_s": 2.0})]
        (window,) = fault_windows(records)
        assert window == {"fault": "Outage", "component": "bottleneck",
                          "start": 1.0, "end": 2.0}

    def test_window_deduplicated_across_events(self):
        detail = {"fault": "Outage", "start_s": 1.0, "end_s": 2.0}
        records = [_fault("fault_begin", 1.0, "bottleneck", dict(detail)),
                   _fault("fault_absorb", 1.5, "bottleneck", dict(detail)),
                   _fault("fault_end", 2.0, "bottleneck", dict(detail))]
        assert len(fault_windows(records)) == 1

    def test_windowless_fault_paired_from_edges(self):
        records = [_fault("fault_begin", 3.0, "r1", {"fault": "Outage"}),
                   _fault("fault_end", 4.5, "r1", {"fault": "Outage"})]
        (window,) = fault_windows(records)
        assert window["start"] == 3.0 and window["end"] == 4.5

    def test_non_fault_records_ignored(self):
        assert fault_windows([_simnet("drop", 0.0, "queue")]) == []


class Mesh:
    def sever(self, i, j):
        pass

    def heal(self, i, j):
        pass


class Sink:
    def receive(self, packet, link):
        pass


#: Each way to take something down for a while, with the windows its
#: dump must show: one per cut component, labelled by the public fault
#: class and the component's type (a link is cut through the test-local
#: ``LinkDrop``).
MECHANISMS = {
    "link": (
        lambda sim, link, channel: Outage(sim, 0.25, 0.5, targets=[LinkDrop(link)]),
        [("Outage", "LinkDrop", 0.25, 0.75)],
    ),
    "link_and_target": (
        lambda sim, link, channel: Outage(
            sim, 0.25, 0.5, targets=[LinkDrop(link), channel]
        ),
        [("Outage", "ControlChannel", 0.25, 0.75), ("Outage", "LinkDrop", 0.25, 0.75)],
    ),
    "target": (
        lambda sim, link, channel: Outage(sim, 0.25, 0.5, targets=[channel]),
        [("Outage", "ControlChannel", 0.25, 0.75)],
    ),
    "mesh": (
        lambda sim, link, channel: Outage(
            sim, 0.25, 0.5, targets=[channel], mesh=Mesh(), edges=[(0, 1)]
        ),
        [("Outage", "ControlChannel", 0.25, 0.75), ("Outage", "Mesh", 0.25, 0.75)],
    ),
    "scheduled_unavailability": (
        lambda sim, link, channel: schedule_unavailability(
            channel, fraction=0.5, duration_s=1.0, period_s=1.0
        ),
        [("Outage", "ControlChannel", 0.0, 0.5)],
    ),
}


class TestSimulatedFaultWindows:
    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_one_window_per_cut_component(self, mechanism):
        build, expected = MECHANISMS[mechanism]
        sim = Simulator()
        link = Link(sim, "bottleneck", 8e6, 0.001)
        link.attach(Sink())
        channel = ControlChannel(sim, ContextServer(sim, 10e6))
        with flightrec.use() as rec:
            build(sim, link, channel)
            for i in range(20):
                sim.schedule_at(
                    0.05 * i,
                    lambda i=i: link.send(make_data_packet(1, "a", "b", i, 100)),
                )
            sim.run()
        windows = fault_windows(rec.records())
        assert sorted(
            (w["fault"], w["component"], w["start"], w["end"]) for w in windows
        ) == expected


class TestStallDetection:
    def test_no_stall_below_threshold(self):
        records = _flow(1, 0.0, 0.1, 0.2, 0.3, end=0.4)
        analysis = analyze({}, records, stall_threshold_s=0.25)
        assert analysis["summary"]["stalls"] == 0

    def test_gap_above_threshold_is_a_stall(self):
        records = _flow(1, 0.0, 0.1, 1.0, end=1.1)
        analysis = analyze({}, records, stall_threshold_s=0.25)
        (flow,) = analysis["flows"]
        (stall,) = flow["stalls"]
        assert stall["start"] == 0.1 and stall["end"] == 1.0
        assert stall["duration_s"] == pytest.approx(0.9)
        assert stall["cause"] == "unknown"

    def test_final_gap_to_flow_end_counts(self):
        records = _flow(1, 0.0, 0.1, end=2.0)
        analysis = analyze({}, records, stall_threshold_s=0.25)
        (stall,) = analysis["flows"][0]["stalls"]
        assert stall["end"] == 2.0

    def test_unfinished_flow_stalls_until_dump_horizon(self):
        # No flow_end: the silence from the last activity to the dump's
        # sim_time is exactly what a post-mortem must flag.
        records = _flow(1, 0.0, 0.1)
        analysis = analyze({"sim_time": 5.0}, records, stall_threshold_s=0.25)
        (flow,) = analysis["flows"]
        assert not flow["completed"]
        (stall,) = flow["stalls"]
        assert stall["start"] == 0.1 and stall["end"] == 5.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            analyze({}, [], stall_threshold_s=0.0)

    def test_negative_flow_ids_ignored(self):
        records = [_simnet("fault_absorb", 0.0, "link")]
        analysis = analyze({}, records)
        assert analysis["summary"]["flows"] == 0

    def test_a_flow_id_on_another_layer_is_not_a_flow(self):
        record = dict(_fault("fault_begin", 0.0, "link"), flow_id=3)
        assert analyze({}, [record])["summary"]["flows"] == 0

    def test_a_flow_that_ends_before_it_starts_has_no_stall(self):
        # Records out of order (a hand-built or damaged dump): no
        # activity falls inside the flow's span, and nothing breaks.
        records = [_transport("flow_start", 2.0, 1), _transport("flow_end", 1.0, 1)]
        (flow,) = analyze({}, records, stall_threshold_s=0.25)["flows"]
        assert flow["stalls"] == []

    def test_an_aborted_flow_renders_as_aborted(self):
        records = _flow(1, 0.0, 0.1) + [_transport("flow_abort", 2.0, 1)]
        analysis = analyze({}, records, stall_threshold_s=0.25)
        assert "aborted" in render_text(analysis)


class TestAttribution:
    def _stall_records(self):
        """One flow with exactly one stall, over [1.0, 2.5]."""
        return _flow(1, 0.8, 0.9, 1.0, 2.5, end=2.6)

    def test_injected_fault_wins(self):
        # The rto record is also an activity mark, so it sits on an
        # existing checkpoint to keep the gap structure unchanged.
        records = self._stall_records() + [
            _fault("fault_begin", 1.2, "bottleneck",
                   {"fault": "Outage", "start_s": 1.2, "end_s": 2.0}),
            _transport("rto", 1.0, 1, {"rto_s": 0.4}),
        ]
        (stall,) = analyze({}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "injected-fault"
        kinds = {span["kind"] for span in stall["evidence"]}
        assert kinds == {"injected-fault", "rto-backoff"}

    def test_failover(self):
        records = self._stall_records() + [
            _phi("failover", 1.3, "lookup", {"primary": 0, "served_by": 1}),
        ]
        (stall,) = analyze({}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "failover"
        assert [s["kind"] for s in stall["evidence"]] == ["failover"]

    def test_all_suspended(self):
        # The single-server plane's bench: its one replica suspended.
        records = self._stall_records() + [_phi("all_suspended", 1.1, "lookup")]
        (stall,) = analyze({"sim_time": 3.0}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "failover"
        assert "all replicas suspended" in stall["evidence"][0]["description"]

    def test_queue_buildup(self):
        records = self._stall_records() + [
            _simnet("drop", 0.9, "queue", 1, 17,
                    {"queued_bytes": 56000, "capacity_bytes": 56250}),
        ]
        (stall,) = analyze({}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "queue-buildup"
        assert "drop-tailed" in stall["evidence"][0]["description"]

    def test_drop_of_another_flow_not_evidence(self):
        records = self._stall_records() + [
            _simnet("drop", 1.2, "queue", 2, 17,
                    {"queued_bytes": 56000, "capacity_bytes": 56250}),
        ]
        flows = analyze({}, records)["flows"]
        flow_one = [f for f in flows if f["flow_id"] == 1][0]
        assert flow_one["stalls"][0]["cause"] == "unknown"

    def test_rto_backoff(self):
        # An rto mid-gap splits the stall into two; both silences are
        # Karn backoff around the same timer.
        records = self._stall_records() + [
            _transport("rto", 1.4, 1, {"rto_s": 0.8, "snd_una": 9000}),
        ]
        stalls = analyze({}, records)["flows"][0]["stalls"]
        assert stalls and {s["cause"] for s in stalls} == {"rto-backoff"}

    def test_context_degradation_from_mode_span(self):
        records = self._stall_records() + [
            _phi("mode", 0.9, "context", {"from": "fresh", "to": "stale"}),
            _phi("mode", 2.8, "context", {"from": "stale", "to": "fresh"}),
        ]
        (stall,) = analyze({}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "context-degradation"

    def test_context_degradation_from_flow_lookup(self):
        records = self._stall_records() + [
            _phi("context", 0.5, "lookup", {"flow_id": 1, "decision": "fallback"}),
        ]
        (stall,) = analyze({}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "context-degradation"

    def test_precedence_order_is_documented_order(self):
        assert CAUSES[0] == "injected-fault"
        assert CAUSES[-1] == "unknown"
        records = self._stall_records() + [
            _fault("fault_begin", 1.2, "bottleneck",
                   {"fault": "Outage", "start_s": 1.2, "end_s": 2.0}),
            _phi("breaker", 1.1, "breaker", {"from": "closed", "to": "open"}),
            _simnet("drop", 1.2, "queue", 1, 3,
                    {"queued_bytes": 1, "capacity_bytes": 2}),
            _transport("rto", 1.4, 1, {"rto_s": 0.8}),
            _phi("mode", 0.9, "context", {"from": "fresh", "to": "distrusted"}),
        ]
        (stall,) = analyze({}, records)["flows"][0]["stalls"]
        assert stall["cause"] == "injected-fault"
        assert len(stall["evidence"]) >= 4


class TestEndToEnd:
    def test_analyze_dump_round_trip(self, tmp_path):
        rec = FlightRecorder()
        rec.transport("flow_start", 0.0, 1)
        rec.simnet("transmit", 0.1, "link", 1, 1)
        rec.fault("fault_begin", 0.2, "bottleneck",
                  detail={"fault": "Outage", "start_s": 0.2, "end_s": 1.5})
        rec.simnet("transmit", 1.6, "link", 1, 2)
        rec.transport("flow_end", 1.7, 1)
        path = tmp_path / "dump.jsonl"
        rec.dump(str(path), reason="watchdog:max_events", sim_time=2.0)
        analysis = analyze_dump(str(path))
        assert analysis["dump"] == str(path)
        assert analysis["anomaly"]["reason"] == "watchdog:max_events"
        (stall,) = analysis["flows"][0]["stalls"]
        assert stall["cause"] == "injected-fault"
        assert analysis["summary"] == {
            "flows": 1, "stalls": 1, "causes": {"injected-fault": 1},
        }

    def test_render_text_mentions_dump_cause_and_evidence(self):
        records = _flow(1, 0.5, 1.0, 2.5, end=2.6) + [
            _fault("fault_begin", 1.2, "bottleneck",
                   {"fault": "Outage", "start_s": 1.2, "end_s": 2.0}),
        ]
        analysis = analyze({"reason": "quarantine:crash:point3"}, records)
        text = render_text(analysis)
        assert "quarantine:crash:point3" in text
        assert "injected-fault" in text
        assert "Outage on bottleneck" in text

    def test_render_text_flow_filter(self):
        records = _flow(1, 0.0, 1.0, end=1.1) + _flow(2, 0.0, 2.0, end=2.1)
        analysis = analyze({}, records)
        only_two = render_text(analysis, flow=2)
        assert "flow 2" in only_two and "flow 1 " not in only_two
