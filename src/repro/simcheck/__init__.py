"""Simulation correctness harness: invariants, audits, and oracles.

This package is the sanitizer/race-detector analogue for the discrete-
event simulator: a runtime invariant layer (:class:`CheckedSimulator`,
conservation audits, TCP sender checks), differential and metamorphic
oracles (:mod:`~repro.simcheck.oracles`, driven by ``repro check``), and
a random-scenario generator (:mod:`~repro.simcheck.fuzz`) shared by the
CLI and the hypothesis property suite.

Checking is **off by default** and follows the telemetry enablement
contract exactly: when disabled, scenario code pays a single module
lookup and bool test per run — no wrapper objects, no per-event or
per-packet work.  Enable it process-wide with the ``REPRO_SIMCHECK=1``
environment variable, which is how CI runs the tier-1 suite in checked
mode: every scenario then runs on a :class:`CheckedSimulator`.
"""

from __future__ import annotations

import os

from .checked import CheckedSimulator
from .conservation import (
    audit_host,
    audit_link,
    audit_queue,
    audit_router,
    audit_topology,
)
from .tcpcheck import check_sender_invariants, checked_factory, install_sender_checks
from .violations import InvariantViolation, ViolationReport, record_violation

__all__ = [
    "CheckedSimulator",
    "InvariantViolation",
    "ViolationReport",
    "audit_host",
    "audit_link",
    "audit_queue",
    "audit_router",
    "audit_topology",
    "check_sender_invariants",
    "checked_factory",
    "enabled",
    "install_sender_checks",
    "record_violation",
]

#: Truthy values accepted for the REPRO_SIMCHECK environment variable.
_TRUTHY = {"1", "true", "yes", "on"}

_enabled: bool = os.environ.get("REPRO_SIMCHECK", "").strip().lower() in _TRUTHY


def enabled() -> bool:
    """Whether scenario runners should build checked simulations."""
    return _enabled
