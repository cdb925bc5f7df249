"""Flight-recorder core: ring bounds, accounting, dumps, scoping."""

import json
import math
from collections import deque

import pytest

from repro import flightrec, telemetry
from repro.flightrec.recorder import (
    LAYERS,
    NULL_RECORDER,
    SCHEMA,
    FlightRecorder,
    NullFlightRecorder,
    iter_layer,
    load_dump,
)

#: A value for every field any layer declares.
SAMPLE = {
    "component": "bottleneck", "flow_id": 7, "packet_id": 99,
    "cwnd": 2.5, "ssthresh": 8.0, "subject": "lookup",
}


@pytest.mark.parametrize("layer", LAYERS)
class TestEveryLayer:
    """The ring contract, once, for each row of the schema table."""

    def test_ring_contract(self, layer, tmp_path):
        default_capacity, fields = SCHEMA[layer]
        names = [field[0] for field in fields]
        assert FlightRecorder().header()["layers"][layer]["capacity"] == (
            default_capacity
        )
        rec = FlightRecorder(**{f"{layer}_capacity": 3})
        emit = getattr(rec, layer)
        values = {name: SAMPLE[name] for name in names}
        for i in range(5):
            emit(f"k{i}", float(i), **values, detail={"i": i} if i == 4 else None)

        # Eviction accounting, on the recorder and in the header block.
        assert getattr(rec, f"{layer}_emitted") == 5
        assert getattr(rec, f"{layer}_evicted") == 2
        assert len(rec) == 3
        assert rec.header()["layers"][layer] == {
            "emitted": 5, "evicted": 2, "capacity": 3,
        }
        assert all(
            block["emitted"] == 0
            for other, block in rec.header()["layers"].items() if other != layer
        )

        # Emission order; key order is the on-disk format.
        records = rec.records()
        assert [r["kind"] for r in records] == ["k2", "k3", "k4"]
        assert list(records[0]) == ["layer", "kind", "t", *names]
        assert records[0] == {"layer": layer, "kind": "k2", "t": 2.0, **values}
        assert records[2]["detail"] == {"i": 4} and "detail" not in records[1]

        # Strict-JSON dump / load round trip.
        path = tmp_path / "dump.jsonl"
        assert rec.dump(str(path), reason="unit", sim_time=4.0) == 3
        header, loaded = load_dump(str(path))
        assert header == rec.header(reason="unit", sim_time=4.0)
        assert loaded == records
        assert list(iter_layer(loaded, layer)) == records
        emit("bad", math.nan, **values)
        with pytest.raises(ValueError):
            rec.dump(str(path), reason="unit")
        assert load_dump(str(path))[1] == records  # the old dump survives

        rec.clear()
        assert len(rec) == 0 and rec.records() == []
        assert getattr(rec, f"{layer}_emitted") == 0
        assert getattr(rec, f"{layer}_evicted") == 0

    def test_defaults_and_required_fields(self, layer):
        _, fields = SCHEMA[layer]
        required = {name: SAMPLE[name] for name, *default in fields if not default}
        rec = FlightRecorder()
        getattr(rec, layer)("k", 0.0, **required)
        (record,) = rec.records()
        for name, *default in fields:
            assert record[name] == (default[0] if default else SAMPLE[name])
        if required:
            with pytest.raises(TypeError):
                getattr(rec, layer)("k", 0.0)

    def test_null_emitter_records_nothing(self, layer):
        getattr(NULL_RECORDER, layer)("k", 0.0, "x", detail={"a": 1})
        assert len(NULL_RECORDER) == 0
        assert getattr(NULL_RECORDER, f"{layer}_emitted") == 0


def _counts_around(capacity):
    """Emission counts at every edge a ring's storage can have: empty, one
    under / at / over capacity, a quarter over (+-1) and several times."""
    quarter = capacity + capacity // 4
    return sorted({
        0, 1, capacity - 1, capacity, capacity + 1,
        quarter - 1, quarter, quarter + 1, 3 * capacity,
    })


class _ReferenceRing:
    """The ring contract in its plainest form: a ``deque(maxlen=capacity)``
    of the record dicts, and a count of everything emitted."""

    def __init__(self, layer, capacity):
        self.layer = layer
        self.capacity = capacity
        self.clear()

    def clear(self):
        self.kept = deque(maxlen=self.capacity)
        self.emitted = 0

    def emit(self, kind, t, values, detail):
        record = {"layer": self.layer, "kind": kind, "t": t, **values}
        if detail is not None:
            record["detail"] = detail
        self.kept.append(record)
        self.emitted += 1


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("capacity", [1, 7, 8])
@pytest.mark.parametrize("cleared_after", [None, 0, 1, "capacity+1"])
def test_ring_matches_a_bounded_deque(layer, capacity, cleared_after, tmp_path):
    """Every observable of one layer's ring, after every emission count
    around its edges, equals the reference deque's — also across clear()."""
    _, fields = SCHEMA[layer]
    names = [field[0] for field in fields]
    samples = {
        "component": lambda i: f"link{i}", "flow_id": lambda i: i,
        "packet_id": lambda i: 1000 + i, "cwnd": lambda i: i + 0.5,
        "ssthresh": lambda i: 2.0 * i, "subject": lambda i: f"rpc{i}",
    }
    if cleared_after == "capacity+1":
        cleared_after = capacity + 1
    path = str(tmp_path / "dump.jsonl")
    for count in _counts_around(capacity):
        rec = FlightRecorder(**{f"{layer}_capacity": capacity})
        reference = _ReferenceRing(layer, capacity)
        emit = getattr(rec, layer)
        emissions = list(range(count))
        if cleared_after is not None:
            # The same count again after a clear() mid-stream.
            emissions = list(range(cleared_after)) + [None] + emissions
        for i in emissions:
            if i is None:
                rec.clear()
                reference.clear()
                continue
            values = {name: samples[name](i) for name in names}
            detail = {"i": i} if i % 3 == 0 else None
            emit(f"k{i}", float(i), **values, detail=detail)
            reference.emit(f"k{i}", float(i), values, detail)

        expected = list(reference.kept)
        evicted = reference.emitted - len(expected)
        assert getattr(rec, f"{layer}_emitted") == reference.emitted
        assert getattr(rec, f"{layer}_evicted") == evicted
        assert len(rec) == len(expected)
        assert rec.records() == expected
        assert rec.header()["layers"][layer] == {
            "emitted": reference.emitted, "evicted": evicted, "capacity": capacity,
        }
        assert rec.dump(path, reason="unit", sim_time=1.0) == len(expected)
        header, loaded = load_dump(path)
        assert header == rec.header(reason="unit", sim_time=1.0)
        assert loaded == expected


class TestRings:
    def test_each_layer_has_its_own_bounded_ring(self):
        rec = FlightRecorder(
            simnet_capacity=2, transport_capacity=3, phi_capacity=1,
            fault_capacity=2,
        )
        for i in range(5):
            rec.simnet("enqueue", float(i), "link", flow_id=1, packet_id=i)
            rec.transport("cwnd", float(i), 1, cwnd=float(i))
            rec.phi("rpc", float(i), "lookup")
            rec.fault("fault_absorb", float(i), "link")
        assert rec.simnet_emitted == 5 and rec.simnet_evicted == 3
        assert rec.transport_emitted == 5 and rec.transport_evicted == 2
        assert rec.phi_emitted == 5 and rec.phi_evicted == 4
        assert rec.fault_emitted == 5 and rec.fault_evicted == 3
        assert len(rec) == 2 + 3 + 1 + 2

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(simnet_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(fault_capacity=0)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            FlightRecorder(spans_capacity=8)

    def test_records_time_sorted_across_layers(self):
        rec = FlightRecorder()
        rec.phi("rpc", 3.0, "lookup")
        rec.simnet("drop", 1.0, "queue", flow_id=7, packet_id=42)
        rec.transport("rto", 2.0, 7)
        records = rec.records()
        assert [r["t"] for r in records] == [1.0, 2.0, 3.0]
        assert [r["layer"] for r in records] == ["simnet", "transport", "phi"]

    def test_detail_omitted_when_none(self):
        rec = FlightRecorder()
        rec.simnet("enqueue", 0.0, "link")
        rec.simnet("drop", 0.0, "queue", detail={"queued_bytes": 9})
        plain, detailed = rec.records()
        assert "detail" not in plain
        assert detailed["detail"] == {"queued_bytes": 9}

    def test_clear_resets_rings_and_counters(self):
        rec = FlightRecorder()
        rec.simnet("enqueue", 0.0, "link")
        rec.fault("fault_begin", 0.0, "link")
        rec.clear()
        assert len(rec) == 0
        assert rec.simnet_emitted == 0
        assert rec.fault_emitted == 0


class TestDump:
    def test_dump_load_round_trip(self, tmp_path):
        rec = FlightRecorder()
        rec.simnet("transmit", 0.5, "bottleneck", flow_id=1, packet_id=10)
        rec.transport("flow_start", 0.25, 1, cwnd=2.0,
                      detail={"flavour": "cubic"})
        rec.phi("mode", 0.75, "context", detail={"from": "fresh", "to": "stale"})
        rec.fault("fault_begin", 0.6, "bottleneck",
                  detail={"fault": "Outage", "start_s": 0.6, "end_s": 1.0})
        path = tmp_path / "dump.jsonl"
        retained = rec.dump(str(path), reason="unit", sim_time=1.0)
        assert retained == 4
        header, records = load_dump(str(path))
        assert header["reason"] == "unit"
        assert header["sim_time"] == 1.0
        assert set(header["layers"]) == set(LAYERS)
        assert [r["layer"] for r in records] == [
            "transport", "simnet", "fault", "phi",
        ]
        assert list(iter_layer(records, "fault"))[0]["detail"]["end_s"] == 1.0

    def test_header_carries_eviction_accounting(self, tmp_path):
        rec = FlightRecorder(simnet_capacity=1)
        rec.simnet("enqueue", 0.0, "link")
        rec.simnet("enqueue", 1.0, "link")
        path = tmp_path / "dump.jsonl"
        rec.dump(str(path), reason="unit")
        header, _ = load_dump(str(path))
        assert header["layers"]["simnet"] == {
            "emitted": 2, "evicted": 1, "capacity": 1,
        }

    def test_dump_rejects_nan(self, tmp_path):
        rec = FlightRecorder()
        rec.transport("cwnd", 0.0, 1, cwnd=math.nan)
        with pytest.raises(ValueError):
            rec.dump(str(tmp_path / "dump.jsonl"), reason="unit")

    def test_nan_dump_leaves_no_artifact(self, tmp_path):
        rec = FlightRecorder()
        rec.transport("cwnd", 0.0, 1, cwnd=math.inf)
        path = tmp_path / "dump.jsonl"
        with pytest.raises(ValueError):
            rec.dump(str(path), reason="unit")
        assert not path.exists()

    def test_dump_is_strict_jsonl(self, tmp_path):
        rec = FlightRecorder()
        rec.simnet("drop", 1.5, "queue", flow_id=3, packet_id=77)
        path = tmp_path / "dump.jsonl"
        rec.dump(str(path), reason="unit")
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_maybe_autodump_without_path_is_noop(self):
        rec = FlightRecorder()
        assert rec.maybe_autodump("anything") is None
        assert rec.autodumps == 0

    def test_maybe_autodump_writes_and_counts(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        rec = FlightRecorder(autodump_path=str(path))
        rec.simnet("drop", 0.0, "queue")
        assert rec.maybe_autodump("watchdog:max_events", sim_time=4.0) == str(path)
        assert rec.autodumps == 1
        assert rec.last_dump_reason == "watchdog:max_events"
        header, _ = load_dump(str(path))
        assert header["reason"] == "watchdog:max_events"
        assert header["sim_time"] == 4.0

    def test_redump_replaces_with_superset(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        rec = FlightRecorder(autodump_path=str(path))
        rec.simnet("enqueue", 0.0, "link")
        rec.maybe_autodump("first")
        rec.simnet("enqueue", 1.0, "link")
        rec.maybe_autodump("second")
        header, records = load_dump(str(path))
        assert header["reason"] == "second"
        assert len(records) == 2


class TestNullRecorder:
    def test_shared_singleton_is_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullFlightRecorder)

    def test_emitters_record_nothing(self):
        NULL_RECORDER.simnet("enqueue", 0.0, "link")
        NULL_RECORDER.transport("cwnd", 0.0, 1)
        NULL_RECORDER.phi("rpc", 0.0, "lookup")
        NULL_RECORDER.fault("fault_begin", 0.0, "link")
        assert len(NULL_RECORDER) == 0

    def test_dump_and_autodump_are_noops(self, tmp_path):
        path = tmp_path / "never.jsonl"
        assert NULL_RECORDER.dump(str(path), reason="x") == 0
        assert NULL_RECORDER.maybe_autodump("x") is None
        assert not path.exists()


class TestScoping:
    def test_disabled_by_default(self):
        assert flightrec.session() is NULL_RECORDER
        assert flightrec.session().enabled is False

    def test_use_activates_and_restores(self):
        with flightrec.use() as rec:
            assert flightrec.session() is rec
            assert rec.enabled
        assert flightrec.session() is NULL_RECORDER

    def test_use_keeps_a_passed_empty_recorder(self):
        # A fresh recorder is empty, so falsy (``__len__`` is 0): it must
        # still be the one activated, not silently replaced by a default.
        mine = FlightRecorder(simnet_capacity=64)
        with flightrec.use(mine) as rec:
            assert rec is mine and flightrec.session() is mine
            flightrec.session().simnet("enqueue", 0.0, "link")
        assert mine.simnet_emitted == 1
        assert mine.header()["layers"]["simnet"]["capacity"] == 64

    def test_use_composes_with_telemetry_in_either_order(self):
        with flightrec.use() as rec:
            with telemetry.use() as tele:
                assert tele.flightrec is rec
                assert flightrec.session() is rec
        with telemetry.use():
            with flightrec.use() as rec:
                assert flightrec.session() is rec
                assert telemetry.session().registry.enabled

    def test_capture_dumps_on_exception(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with flightrec.capture(str(path)) as rec:
                rec.simnet("enqueue", 0.0, "link")
                raise RuntimeError("worker died")
        header, records = load_dump(str(path))
        assert header["reason"] == "RuntimeError: worker died"
        assert len(records) == 1

    def test_capture_keeps_more_specific_anomaly_reason(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with flightrec.capture(str(path)) as rec:
                rec.maybe_autodump("invariant:wire_conservation")
                raise RuntimeError("unwinding after the violation")
        header, _ = load_dump(str(path))
        assert header["reason"] == "invariant:wire_conservation"

    def test_capture_no_dump_on_success(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        with flightrec.capture(str(path)) as rec:
            rec.simnet("enqueue", 0.0, "link")
        assert not path.exists()
