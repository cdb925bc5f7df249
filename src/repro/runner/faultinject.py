"""Test-only fault injection for sweep workers.

The resilience layer (:mod:`repro.runner.resilience`) needs real worker
crashes, hangs, and exceptions to test against — faults that cannot be
produced by mocking because they must cross a process boundary exactly
the way a production failure would.  This module arms such faults inside
:func:`repro.runner.core.evaluate_point` via a single environment
variable, so the spec travels to worker processes for free:

``REPRO_SWEEP_FAULT`` — a JSON object::

    {"mode": "crash" | "raise" | "hang",
     "beta": 0.2,          # optional match filters: only points whose
     "run_index": 0,       # fields equal every provided filter fire
     "seed": 3,
     "once_dir": "/tmp/x", # optional: fire at most once per point,
                           # latched atomically across processes
     "hang_s": 3600.0}     # sleep length for mode=hang

Modes
-----
``crash``
    ``os._exit(EXIT_CODE)`` — the worker dies without cleanup, exactly like a
    segfault or OOM kill, driving ``BrokenProcessPool`` in the parent.
    Only fires inside a worker process (never in the in-process serial
    path, which would take the whole interpreter down).
``raise``
    Raises :class:`InjectedFault`, modelling a deterministic per-point
    software error.
``hang``
    Sleeps ``hang_s`` wall seconds, modelling a stuck simulation that
    only a supervisor-side timeout can clear.

Production sweeps never set the variable; the cost when unset is one
``os.environ`` membership test per point.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..simnet.bounds import check
from ..simnet.random import check_seed

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from .core import SweepPoint

ENV_VAR = "REPRO_SWEEP_FAULT"

#: ``os._exit`` status of a ``mode="crash"`` worker.
EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """The deterministic exception raised by ``mode="raise"``."""


@dataclass(frozen=True)
class FaultSpec:
    """Parsed form of the ``REPRO_SWEEP_FAULT`` JSON."""

    mode: str
    beta: Optional[float] = None
    run_index: Optional[int] = None
    seed: Optional[int] = None
    once_dir: Optional[str] = None
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "raise", "hang"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.beta is not None:
            check("beta", self.beta)
        if self.run_index is not None:
            check("run_index", self.run_index, ge=0, integer=True)
        if self.seed is not None:
            check_seed(self.seed)
        check("hang_s", self.hang_s, gt=0)

    def matches(self, point: "SweepPoint") -> bool:
        """Whether every provided filter equals the point's field."""
        if self.beta is not None and point.params.beta != self.beta:
            return False
        if self.run_index is not None and point.run_index != self.run_index:
            return False
        if self.seed is not None and point.seed != self.seed:
            return False
        return True

    def to_env(self) -> str:
        """The JSON to place in ``REPRO_SWEEP_FAULT`` (tests use this)."""
        payload = {"mode": self.mode, "hang_s": self.hang_s}
        for key in ("beta", "run_index", "seed", "once_dir"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return json.dumps(payload)


def fault_spec_from_env() -> Optional[FaultSpec]:
    """The active :class:`FaultSpec`, or None when the env var is unset."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    return FaultSpec(**json.loads(raw))


def _latch(spec: FaultSpec, point: "SweepPoint") -> bool:
    """Atomically claim the one allowed firing for this point.

    Returns True if this call won the latch (the fault should fire).
    ``O_CREAT | O_EXCL`` is atomic across processes, so retries of the
    same point — possibly on a different worker — observe the latch.
    """
    name = (
        f"fired-{spec.mode}-b{point.params.beta}"
        f"-w{point.params.window_init}-s{point.params.initial_ssthresh}"
        f"-r{point.run_index}-seed{point.seed}"
    )
    try:
        fd = os.open(
            os.path.join(spec.once_dir, name),
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True


def maybe_inject_fault(point: "SweepPoint") -> None:
    """Fire the armed fault if ``point`` matches the active spec."""
    spec = fault_spec_from_env()
    if spec is None or not spec.matches(point):
        return
    if spec.once_dir is not None and not _latch(spec, point):
        return
    if spec.mode == "crash":
        # In-process (serial / fallback) evaluation must survive: a crash
        # fault models a *worker* death, so it only fires in children.
        if multiprocessing.parent_process() is not None:
            os._exit(EXIT_CODE)
        return
    if spec.mode == "raise":
        raise InjectedFault(
            f"injected fault for run_index={point.run_index} "
            f"seed={point.seed} beta={point.params.beta}"
        )
    if spec.mode == "hang":
        time.sleep(spec.hang_s)
