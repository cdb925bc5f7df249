"""Serializable result records for the sweep runner.

Workers hand results back across process boundaries and into the on-disk
cache, so everything here is a frozen dataclass or a named tuple with
exact JSON round-trips: floats serialize via ``repr`` (Python's ``json``
does this natively) and deserialize to bit-identical values, which is
what lets the determinism tests compare serial and parallel runs with
``==``.
A flow's RTT samples, one per ACK, are held as their count and digest,
so a result's size grows with its flows, not with its ACKs.

:func:`encode_record` / :func:`decode_record` are the one stored form of a
result, shared by the disk cache (one record per file) and the checkpoint
journal (one record per line).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..metrics.summary import RunMetrics
from ..transport.base import ConnectionStats
from ..transport.cubic import CubicParams


def rtt_digest(samples: Sequence[float]) -> str:
    """SHA-256 hex of ``samples`` packed as little-endian IEEE-754 doubles."""
    return hashlib.sha256(struct.pack(f"<{len(samples)}d", *samples)).hexdigest()


class FlowRecord(NamedTuple):
    """A per-connection outcome, immutable for hashing and comparison.

    This is :class:`~repro.transport.base.ConnectionStats` with the
    mutable list of RTT samples pinned down by its length and
    :func:`rtt_digest`, so two runs compare field-for-field — samples
    bit-identical in value and order — at a fixed size per flow.  No
    reader needs the samples of a stored point; a point is a pure
    function of its spec, so an analysis that does re-runs it.  A tuple,
    not a frozen dataclass: a stored point rebuilds one per flow, and a
    tuple is built in one call instead of one ``__setattr__`` per field.
    """

    flow_id: int
    start_time: float
    end_time: float
    bytes_goodput: int
    bytes_sent: int
    packets_sent: int
    retransmits: int
    timeouts: int
    fast_retransmits: int
    rtt_count: int
    rtt_digest: str
    min_rtt: float
    completed: bool

    @classmethod
    def from_stats(cls, stats: ConnectionStats) -> "FlowRecord":
        """Freeze one connection's stats."""
        return cls(
            stats.flow_id,
            stats.start_time,
            stats.end_time,
            stats.bytes_goodput,
            stats.bytes_sent,
            stats.packets_sent,
            stats.retransmits,
            stats.timeouts,
            stats.fast_retransmits,
            len(stats.rtt_samples),
            rtt_digest(stats.rtt_samples),
            stats.min_rtt,
            stats.completed,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "flow_id": self.flow_id,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "bytes_goodput": self.bytes_goodput,
            "bytes_sent": self.bytes_sent,
            "packets_sent": self.packets_sent,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "fast_retransmits": self.fast_retransmits,
            "rtt_count": self.rtt_count,
            "rtt_digest": self.rtt_digest,
            # A zero-sample flow has min_rtt = inf, which is not valid
            # JSON (json.dump emits the non-standard ``Infinity``); it
            # round-trips as null instead.
            "min_rtt": self.min_rtt if math.isfinite(self.min_rtt) else None,
            "completed": self.completed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowRecord":
        return cls(
            int(data["flow_id"]),
            float(data["start_time"]),
            float(data["end_time"]),
            int(data["bytes_goodput"]),
            int(data["bytes_sent"]),
            int(data["packets_sent"]),
            int(data["retransmits"]),
            int(data["timeouts"]),
            int(data["fast_retransmits"]),
            int(data["rtt_count"]),
            str(data["rtt_digest"]),
            math.inf if data["min_rtt"] is None else float(data["min_rtt"]),
            bool(data["completed"]),
        )


@dataclass(frozen=True)
class PointResult:
    """Everything one (grid point, run) evaluation produced.

    ``key`` is the content hash of (params, topology, workload, duration,
    seed, engine version) — see :mod:`repro.runner.hashing` — which makes
    it the cache key and the join key for deterministic merges.
    """

    key: str
    params: CubicParams
    seed: int
    run_index: int
    metrics: RunMetrics
    flows: Tuple[FlowRecord, ...]
    bottleneck_drop_rate: float
    mean_utilization: float
    duration_s: float
    events_processed: int
    wall_seconds: float
    #: Worker-side metrics snapshot (when the sweep collects telemetry).
    #: Observability sidecar, not simulation output: excluded from
    #: equality, from ``to_dict`` (cache/journal), and from
    #: ``identical_to``, so telemetry can never perturb determinism
    #: checks or cached results.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def identical_to(self, other: "PointResult") -> bool:
        """Bit-identical simulation outcome (wall time excluded).

        Wall-clock is the only field allowed to differ between a serial
        and a parallel evaluation of the same point.
        """
        return (
            self.key == other.key
            and self.params == other.params
            and self.seed == other.seed
            and self.run_index == other.run_index
            and self.metrics == other.metrics
            and self.flows == other.flows
            and self.bottleneck_drop_rate == other.bottleneck_drop_rate
            and self.mean_utilization == other.mean_utilization
            and self.events_processed == other.events_processed
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "params": self.params.as_dict(),
            "seed": self.seed,
            "run_index": self.run_index,
            "metrics": {
                "throughput_mbps": self.metrics.throughput_mbps,
                "queueing_delay_ms": self.metrics.queueing_delay_ms,
                "loss_rate": self.metrics.loss_rate,
                "connections": self.metrics.connections,
                "total_bytes": self.metrics.total_bytes,
                "mean_rtt_ms": self.metrics.mean_rtt_ms,
                "mean_utilization": self.metrics.mean_utilization,
            },
            "flows": [flow.to_dict() for flow in self.flows],
            "bottleneck_drop_rate": self.bottleneck_drop_rate,
            "mean_utilization": self.mean_utilization,
            "duration_s": self.duration_s,
            "events_processed": self.events_processed,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointResult":
        metrics = data["metrics"]
        return cls(
            key=str(data["key"]),
            params=CubicParams(**data["params"]),
            seed=int(data["seed"]),
            run_index=int(data["run_index"]),
            metrics=RunMetrics(
                throughput_mbps=float(metrics["throughput_mbps"]),
                queueing_delay_ms=float(metrics["queueing_delay_ms"]),
                loss_rate=float(metrics["loss_rate"]),
                connections=int(metrics["connections"]),
                total_bytes=int(metrics["total_bytes"]),
                mean_rtt_ms=float(metrics["mean_rtt_ms"]),
                mean_utilization=float(metrics["mean_utilization"]),
            ),
            flows=tuple(map(FlowRecord.from_dict, data["flows"])),
            bottleneck_drop_rate=float(data["bottleneck_drop_rate"]),
            mean_utilization=float(data["mean_utilization"]),
            duration_s=float(data["duration_s"]),
            events_processed=int(data["events_processed"]),
            wall_seconds=float(data["wall_seconds"]),
        )


def flow_records(per_sender_stats: List[List[ConnectionStats]]) -> Tuple[FlowRecord, ...]:
    """Flatten a scenario's per-sender stats into frozen flow records."""
    return tuple(
        FlowRecord.from_stats(stats)
        for sender in per_sender_stats
        for stats in sender
    )


# ----------------------------------------------------------------------
# Stored records
# ----------------------------------------------------------------------
#: The canonical JSON of :func:`repro.runner.hashing.canonical_json`, made
#: strict: a non-finite float fails at write time instead of persisting an
#: ``Infinity``/``NaN`` token other parsers reject.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_HEAD = '{"checksum":"'
_SEP = '","result":'
_DIGEST_END = len(_HEAD) + 64
_BODY_START = _DIGEST_END + len(_SEP)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_record(result: PointResult) -> str:
    """The stored text of ``result``: ``{"checksum":"<hex>","result":<body>}``.

    ``body`` is the canonical JSON of ``result.to_dict()``, encoded once,
    and the checksum is the SHA-256 of exactly those characters — the
    value :func:`~repro.runner.hashing.content_hash` gives the payload.
    """
    body = _CANONICAL.encode(result.to_dict())
    return _HEAD + _sha256(body) + _SEP + body + "}"


def decode_record(text: str) -> Optional[PointResult]:
    """The result stored in ``text``, or None for any kind of damage.

    The stored body is checked by hashing it as it stands; only a body
    that matches is parsed.  Text in any other layout is damage,
    including the records of older versions: the ``json.dumps`` envelope
    from before this codec, and flows that carried ``rtt_samples`` lists.
    """
    if not (
        text.startswith(_HEAD)
        and text.startswith(_SEP, _DIGEST_END)
        and text.endswith("}")
    ):
        return None
    body = text[_BODY_START:-1]
    if _sha256(body) != text[len(_HEAD):_DIGEST_END]:
        return None
    try:
        return PointResult.from_dict(json.loads(body))
    except (ValueError, KeyError, TypeError):
        return None
