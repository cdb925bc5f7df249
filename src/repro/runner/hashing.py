"""Content hashing for sweep-point results.

A point's cache key covers everything that determines its outcome: the
Cubic parameters, the topology, the workload, the simulated duration,
the seed, and an engine signature that is bumped whenever the simulation
semantics change (so stale caches can never leak results from an older
physics).  Keys are hex SHA-256 over a canonical JSON encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Optional

from ..simnet.topology import DumbbellConfig
from ..transport.cubic import CubicParams
from ..workload.onoff import OnOffConfig

#: Bump on any change that alters simulation trajectories (event ordering,
#: queue accounting, transport behaviour, workload draws ...).
#: v3: LinkMonitor samples on a drift-free epoch + k*period grid, which
#: moves sample times (and hence mean_utilization) at float-ulp scale.
#: v4: Cubic's TCP-friendly window follows the Ha et al. law (epoch
#: window origin, t = elapsed + rtt) and ACKs echoing a legitimate 0.0
#: send time are now RTT-sampled; both change trajectories.
#: v5: a link keeps the end of serialization as a time, not an event, so
#: a packet arriving at the exact instant the wire clears with nothing
#: queued bypasses the queue (``enqueued_packets``, hence ``loss_rate``,
#: moves on lossy runs); and ``snd_nxt`` is clamped up to ``snd_una`` on
#: every new ACK, so a sender rewound by an RTO no longer re-sends ACKed
#: bytes as new data.
#: v6: every Phi plane runs the failover channel, a single server as its
#: one replica, with a constant suspension window; the control channel's
#: circuit breaker is gone.  Single-server planes under outages move.
#: v7: a send starts the retransmission timer only when it is stopped
#: (RFC 6298 §5.1), so a sender that keeps sending still times out on a
#: lost retransmission; lossy runs move.
ENGINE_SIGNATURE = "phi-simnet-v7-rto-on-stopped-timer"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact float repr."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plain(value: Any) -> Any:
    """Reduce configs/dataclasses to canonical JSON-friendly structures."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        # Field by field, not ``asdict``: that deep-copies every nested
        # value only for this function to walk it again.
        names = sorted(f.name for f in fields(value))
        return {name: plain(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def content_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``payload``."""
    encoded = canonical_json(plain(payload)).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def point_key(
    params: CubicParams,
    config: DumbbellConfig,
    workload: Optional[OnOffConfig],
    duration_s: float,
    seed: int,
) -> str:
    """The cache key of one (grid point, run) evaluation."""
    return content_hash({
        "engine": ENGINE_SIGNATURE,
        "params": params,
        "topology": config,
        "workload": workload,
        "duration_s": float(duration_s),
        "seed": int(seed),
    })
