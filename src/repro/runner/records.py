"""Serializable result records for the sweep runner.

Workers hand results back across process boundaries and into the on-disk
cache, so everything here is a plain frozen dataclass with exact
JSON round-trips: floats serialize via ``repr`` (Python's ``json`` does
this natively) and deserialize to bit-identical values, which is what
lets the determinism tests compare serial and parallel runs with ``==``.
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..metrics.summary import RunMetrics
from ..transport.base import ConnectionStats
from ..transport.cubic import CubicParams
from .hashing import content_hash


def rtt_digest(samples: Sequence[float]) -> str:
    """SHA-256 hex of ``samples`` packed as little-endian IEEE-754 doubles."""
    return hashlib.sha256(struct.pack(f"<{len(samples)}d", *samples)).hexdigest()


@dataclass(frozen=True)
class FlowRecord:
    """A per-connection outcome, frozen for hashing and comparison.

    This is :class:`~repro.transport.base.ConnectionStats` with the
    mutable list of RTT samples pinned down by its length and
    :func:`rtt_digest`, so two runs compare field-for-field — samples
    bit-identical in value and order — at a fixed size per flow.  No
    reader needs the samples of a stored point; a point is a pure
    function of its spec, so an analysis that does re-runs it.
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
            flow_id=stats.flow_id,
            start_time=stats.start_time,
            end_time=stats.end_time,
            bytes_goodput=stats.bytes_goodput,
            bytes_sent=stats.bytes_sent,
            packets_sent=stats.packets_sent,
            retransmits=stats.retransmits,
            timeouts=stats.timeouts,
            fast_retransmits=stats.fast_retransmits,
            rtt_count=len(stats.rtt_samples),
            rtt_digest=rtt_digest(stats.rtt_samples),
            min_rtt=stats.min_rtt,
            completed=stats.completed,
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
        if "rtt_samples" in data:
            # Stored before records held a digest: pin the sample list
            # the same way, so it compares equal to a fresh run.
            if "rtt_count" in data or "rtt_digest" in data:
                raise ValueError("flow record has both RTT layouts")
            samples = list(map(float, data["rtt_samples"]))
            count, digest = len(samples), rtt_digest(samples)
        else:
            count, digest = int(data["rtt_count"]), str(data["rtt_digest"])
        return cls(
            flow_id=int(data["flow_id"]),
            start_time=float(data["start_time"]),
            end_time=float(data["end_time"]),
            bytes_goodput=int(data["bytes_goodput"]),
            bytes_sent=int(data["bytes_sent"]),
            packets_sent=int(data["packets_sent"]),
            retransmits=int(data["retransmits"]),
            timeouts=int(data["timeouts"]),
            fast_retransmits=int(data["fast_retransmits"]),
            rtt_count=count,
            rtt_digest=digest,
            min_rtt=math.inf if data["min_rtt"] is None else float(data["min_rtt"]),
            completed=bool(data["completed"]),
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

    A record in :func:`encode_record`'s layout is checked by hashing the
    stored body as it stands; only a body that matches is parsed.  Any
    other layout — records written by ``json.dumps`` with its default
    separators, before this codec existed — is parsed first and checked
    against the canonical JSON of the parsed payload.
    """
    try:
        if (
            text.startswith(_HEAD)
            and text.startswith(_SEP, _DIGEST_END)
            and text.endswith("}")
        ):
            body = text[_BODY_START:-1]
            if _sha256(body) != text[len(_HEAD):_DIGEST_END]:
                return None
            payload = json.loads(body)
        else:
            envelope = json.loads(text)
            payload = envelope["result"]
            if envelope["checksum"] != content_hash(payload):
                return None
        return PointResult.from_dict(payload)
    except (ValueError, KeyError, TypeError):
        return None
