"""repro.runner — the multiprocess experiment-sweep engine.

Fans parameter grids / scenario lists out over a worker pool with
content-hash result caching, progress reporting, and a deterministic
merge that makes parallel sweeps bit-identical to serial ones.
Execution is crash-safe: a supervisor (:mod:`repro.runner.resilience`)
retries or quarantines failing points, and a checkpoint journal
(:mod:`repro.runner.checkpoint`) makes interrupted sweeps resumable.
See DESIGN.md ("Sweep runner", "Failure modes") for the architecture.
"""

from .cache import DiskCache, NullCache
from .checkpoint import CheckpointError, SweepJournal, sweep_key
from .core import (
    SweepOutcome,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    evaluate_point,
    machine_fingerprint,
)
from .hashing import ENGINE_SIGNATURE, canonical_json, content_hash, point_key
from .progress import ConsoleProgress, ProgressReporter, SweepProgress
from .records import FlowRecord, PointResult, flow_records
from .resilience import (
    ExecutionReport,
    PointFailure,
    QuarantinedPoint,
    ResilienceConfig,
    SweepSupervisor,
)

__all__ = [
    "ENGINE_SIGNATURE",
    "CheckpointError",
    "ConsoleProgress",
    "DiskCache",
    "ExecutionReport",
    "FlowRecord",
    "NullCache",
    "PointFailure",
    "PointResult",
    "ProgressReporter",
    "QuarantinedPoint",
    "ResilienceConfig",
    "SweepJournal",
    "SweepOutcome",
    "SweepPoint",
    "SweepProgress",
    "SweepRunner",
    "SweepSpec",
    "SweepSupervisor",
    "canonical_json",
    "content_hash",
    "evaluate_point",
    "flow_records",
    "machine_fingerprint",
    "point_key",
    "sweep_key",
]
