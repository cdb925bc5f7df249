"""The flight-recorder core: bounded per-layer rings of lifecycle events.

The recorder is the causal complement to the metrics registry: where a
counter says *how many* RTOs fired, the recorder says *which flow*, *at
what sim time*, and *what else was happening* — the enqueue that never
dequeued, the fault window that swallowed the retransmit, the breaker
that opened two RPCs earlier.  It is the repo's only event ring, its
dump the only on-disk event format and :func:`load_dump` the only
loader.  There is one ring per layer; :data:`SCHEMA` is the single
definition of the layers, their budgets and their fields, and every
per-layer name on :class:`FlightRecorder` (``rec.<layer>(...)``,
``rec.<layer>_emitted``, ``rec.<layer>_evicted``) is derived from it.

Cost contract (mirrors :mod:`repro.telemetry`): a disabled recorder is
the shared :data:`NULL_RECORDER` singleton, and every instrumentation
site pays one session lookup plus one ``enabled`` bool.  Enabled, each
event is a handful of scalar stores into a preallocated flat slot
buffer — no container allocation per event.  The flat rings are what
keep the armed recorder inside its 1.10x hot-path budget: appending a
tuple per event looks cheap but grows the garbage collector's tracked
set by tens of thousands of objects, and the resulting extra collection
passes over the whole simulation heap cost more than the appends
themselves (measured ~1.4x on the table-3 hot path; scalar stores into
preallocated slots allocate nothing the collector tracks).  No I/O, no
effect on the simulation trajectory — the budget is asserted in
``benchmarks/test_bench_flightrec.py``.

Serialization is strict JSON (``allow_nan=False``), one record per
line, with a header line carrying the per-layer eviction accounting and
the anomaly that triggered the dump.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: A field is ``(name,)`` when the emitter requires it and ``(name,
#: default)`` otherwise.  Every slot is ``t, kind, *fields, detail``.
_Fields = Tuple[Tuple[Any, ...], ...]

#: Link/queue events are keyed by packet id and carry the owning flow.
_PACKET_FIELDS: _Fields = (("component",), ("flow_id", -1), ("packet_id", -1))

#: layer -> (default ring capacity, fields).  Dict order is the order
#: layers interleave in at equal sim times.
SCHEMA: Dict[str, Tuple[int, _Fields]] = {
    # enqueue/dequeue/transmit/drop; the largest ring (several events
    # per packet).  At these sizes a fully warm recorder holds a few MB.
    "simnet": (32768, _PACKET_FIELDS),
    # flow start/end, cwnd/ssthresh changes, RTO fires, recovery edges.
    "transport": (16384, (("flow_id",), ("cwnd", -1.0), ("ssthresh", -1.0))),
    # RPC outcomes, failovers, breaker transitions, context-mode edges;
    # a handful of events per connection.
    "phi": (8192, (("subject", ""),)),
    # Injection window edges, absorbs, delays, and run anomalies.  Rare
    # but attribution-critical (the post-mortem matches stalls against
    # fault windows), so they get a ring of their own: a busy data plane
    # would evict a fault edge from the first ring long before a dump.
    "fault": (4096, _PACKET_FIELDS),
}

LAYERS = tuple(SCHEMA)

HEADER_NAME = "flightrec.header"


class _Ring:
    """One layer's ring: a flat preallocated slot buffer and its count."""

    __slots__ = ("fields", "width", "capacity", "buf", "emitted")

    def __init__(self, fields: _Fields, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring capacities must be >= 1")
        self.fields = tuple(field[0] for field in fields)
        self.width = len(fields) + 3
        self.capacity = capacity
        self.clear()

    def clear(self) -> None:
        self.buf: List[Any] = [None] * (self.capacity * self.width)
        self.emitted = 0

    @property
    def evicted(self) -> int:
        return max(0, self.emitted - self.capacity)

    def __len__(self) -> int:
        return min(self.emitted, self.capacity)

    def records(self, layer: str) -> Iterator[Dict[str, Any]]:
        """Retained slots as dicts, oldest emission first."""
        buf, width, fields = self.buf, self.width, self.fields
        for n in range(self.emitted - len(self), self.emitted):
            base = (n % self.capacity) * width
            t, kind, *values, detail = buf[base:base + width]
            record = {"layer": layer, "kind": kind, "t": t}
            record.update(zip(fields, values))
            if detail is not None:
                record["detail"] = detail
            yield record


def _emitter(layer: str, fields: _Fields):
    """Compile ``rec.<layer>(kind, t, *fields, detail=None)``.

    Generated (the :func:`collections.namedtuple` idiom) so each layer
    gets its own named parameters and defaults while the body stays a
    fixed run of scalar stores: no ``*args`` tuple, no loop, nothing
    the collector tracks.
    """
    names = ["t", "kind"] + [field[0] for field in fields] + ["detail"]
    params = [name if not default else f"{name}={default[0]!r}"
              for name, *default in fields]
    stores = "".join(
        f"    buf[base + {offset}] = {name}\n" for offset, name in enumerate(names)
    )
    source = (
        f"def {layer}(self, kind, t, {', '.join(params)}, detail=None):\n"
        f"    ring = self.rings[{layer!r}]\n"
        f"    i = ring.emitted\n"
        f"    ring.emitted = i + 1\n"
        f"    base = (i % ring.capacity) * {len(names)}\n"
        f"    buf = ring.buf\n"
        f"{stores}"
    )
    namespace: Dict[str, Any] = {}
    # Compiled under this file's name so profilers charge the emitters
    # to the recorder; the source is built from SCHEMA alone.
    exec(compile(source, __file__, "exec"), namespace)
    function = namespace[layer]
    function.__qualname__ = f"FlightRecorder.{layer}"
    function.__doc__ = f"Record one {layer}-layer event (see SCHEMA)."
    return function


class FlightRecorder:
    """Bounded, layered ring buffers of causally linked lifecycle events.

    ``<layer>_capacity`` keywords override the :data:`SCHEMA` budgets.
    """

    enabled = True

    __slots__ = ("rings", "autodump_path", "autodumps", "last_dump_reason")

    def __init__(
        self, *, autodump_path: Optional[str] = None, **capacities: int
    ) -> None:
        self.rings: Dict[str, _Ring] = {
            layer: _Ring(fields, capacities.pop(f"{layer}_capacity", default))
            for layer, (default, fields) in SCHEMA.items()
        }
        if capacities:
            raise TypeError(f"unexpected arguments: {sorted(capacities)}")
        #: When set, :meth:`maybe_autodump` snapshots the rings here —
        #: the dump-on-anomaly hooks (watchdog trips, invariant
        #: violations, quarantined sweep points, envelope failures) all
        #: funnel through it.
        self.autodump_path = autodump_path
        self.autodumps = 0
        self.last_dump_reason: Optional[str] = None

    def __len__(self) -> int:
        return sum(len(ring) for ring in self.rings.values())

    def records(self) -> List[Dict[str, Any]]:
        """All retained records as dicts, time-sorted across layers.

        The sort is stable, so within a layer the emission order is
        preserved and the interleaving of layers at equal sim times is
        deterministic (:data:`SCHEMA` order).
        """
        merged = [
            record
            for layer, ring in self.rings.items()
            for record in ring.records(layer)
        ]
        merged.sort(key=lambda record: record["t"])
        return merged

    def header(
        self, *, reason: Optional[str] = None, sim_time: Optional[float] = None
    ) -> Dict[str, Any]:
        """The dump header: anomaly context plus eviction accounting."""
        return {
            "name": HEADER_NAME,
            "kind": "header",
            "reason": reason,
            "sim_time": sim_time,
            "layers": {
                layer: {
                    "emitted": ring.emitted,
                    "evicted": ring.evicted,
                    "capacity": ring.capacity,
                }
                for layer, ring in self.rings.items()
            },
        }

    def dump(
        self,
        path: str,
        *,
        reason: Optional[str] = None,
        sim_time: Optional[float] = None,
    ) -> int:
        """Snapshot the rings to ``path`` as strict JSONL; retained count.

        The write is atomic (temp file + ``os.replace``) so a dump
        interrupted by a dying worker never leaves a torn artifact; a
        repeated dump to the same path (a later anomaly in the same run)
        replaces the earlier snapshot with a superset of its events.
        """
        records = self.records()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            # allow_nan=False: strict JSON, like every other artifact in
            # the repo (journals, manifests, check reports).
            handle.write(
                json.dumps(self.header(reason=reason, sim_time=sim_time),
                           allow_nan=False) + "\n"
            )
            for record in records:
                handle.write(json.dumps(record, allow_nan=False) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        self.last_dump_reason = reason
        return len(records)

    def maybe_autodump(
        self, reason: str, *, sim_time: Optional[float] = None
    ) -> Optional[str]:
        """Dump to the configured anomaly path, if one is set.

        This is the dump-on-anomaly funnel: cheap to call from anywhere
        (a no-op without ``autodump_path``), idempotent in effect
        (re-dumps replace), and counted so tests can assert it fired.
        """
        if self.autodump_path is None:
            return None
        self.dump(self.autodump_path, reason=reason, sim_time=sim_time)
        self.autodumps += 1
        return self.autodump_path

    def clear(self) -> None:
        for ring in self.rings.values():
            ring.clear()
        self.autodumps = 0
        self.last_dump_reason = None


class NullFlightRecorder(FlightRecorder):
    """The shared disabled recorder: every emitter is an empty function.

    Instrumentation sites check ``enabled`` before building any event
    payload, so the per-site cost when disabled is one attribute load
    and one bool test.
    """

    enabled = False

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(**{f"{layer}_capacity": 1 for layer in SCHEMA})

    def dump(self, path: str, **kwargs) -> int:
        return 0

    def maybe_autodump(self, reason: str, **kwargs) -> Optional[str]:
        return None


def _ignore(self, *args, **kwargs) -> None:
    """A :class:`NullFlightRecorder` emitter."""


def _ring_count(layer: str, attribute: str) -> property:
    return property(lambda self: getattr(self.rings[layer], attribute))


for _layer, (_, _fields) in SCHEMA.items():
    setattr(FlightRecorder, _layer, _emitter(_layer, _fields))
    setattr(FlightRecorder, f"{_layer}_emitted", _ring_count(_layer, "emitted"))
    setattr(FlightRecorder, f"{_layer}_evicted", _ring_count(_layer, "evicted"))
    setattr(NullFlightRecorder, _layer, _ignore)

#: The process-wide disabled recorder (see :class:`NullFlightRecorder`).
NULL_RECORDER = NullFlightRecorder()


def load_dump(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a dump back: ``(header, records)``.

    Tolerates a missing header (returns an empty one) but not malformed
    JSON — a dump is written atomically, so damage means a real bug.
    """
    header: Dict[str, Any] = {}
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("name") == HEADER_NAME:
                header = payload
            else:
                records.append(payload)
    return header, records


def iter_layer(
    records: List[Dict[str, Any]], layer: str
) -> Iterator[Dict[str, Any]]:
    """The records of one layer, in dump (time) order."""
    return (record for record in records if record.get("layer") == layer)


__all__ = [
    "FlightRecorder",
    "HEADER_NAME",
    "LAYERS",
    "NULL_RECORDER",
    "NullFlightRecorder",
    "SCHEMA",
    "iter_layer",
    "load_dump",
]
