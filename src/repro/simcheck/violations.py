"""Structured invariant violations and the report that collects them.

Every check in :mod:`repro.simcheck` funnels through
:func:`record_violation`: the violation is counted in the PR-6 telemetry
registry (``simcheck.violations{invariant=...}``), then either raised
immediately (the default — a broken invariant means the simulation's
output cannot be trusted) or appended to a :class:`ViolationReport` when
the caller wants to sweep a whole run and report everything at once (the
``repro check`` CLI does this so one violation doesn't hide the rest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..telemetry import session as _telemetry_session


class InvariantViolation(AssertionError):
    """A machine-checked simulation invariant did not hold.

    Structured so supervisors and reports can aggregate by invariant
    name; derives from :class:`AssertionError` because a violation has
    the same meaning as a failed assert — the run's output is invalid.
    """

    def __init__(
        self,
        invariant: str,
        subject: str,
        message: str,
        sim_time: float = 0.0,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            f"[{invariant}] {subject} at t={sim_time:.6f}s: {message}"
        )
        self.invariant = invariant
        self.subject = subject
        self.message = message
        self.sim_time = sim_time
        self.details: Dict[str, Any] = details or {}

    def __reduce__(self):
        # Violations can cross process boundaries (sweep workers -> the
        # supervisor), so pickling rebuilds through our constructor.
        return (
            type(self),
            (self.invariant, self.subject, self.message, self.sim_time, self.details),
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON violation reports."""
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "message": self.message,
            "sim_time": self.sim_time,
            "details": dict(self.details),
        }


@dataclass
class ViolationReport:
    """Collects violations instead of raising on the first one.

    Passed into audit functions by the ``repro check`` CLI so a single
    sweep surfaces every broken invariant; tests and the default checked
    path leave it ``None`` and fail fast.
    """

    violations: List[InvariantViolation] = field(default_factory=list)
    checks_performed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)

    def counted(self, n: int = 1) -> None:
        """Credit ``n`` executed checks (for report bookkeeping)."""
        self.checks_performed += n

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the CLI's JSON artifact."""
        return {
            "ok": self.ok,
            "checks_performed": self.checks_performed,
            "violation_count": len(self.violations),
            "violations": [v.as_dict() for v in self.violations],
        }


def record_violation(
    violation: InvariantViolation,
    report: Optional[ViolationReport] = None,
) -> None:
    """Count ``violation`` in telemetry, then raise or collect it."""
    tele = _telemetry_session()
    if tele.enabled:
        tele.registry.counter(
            "simcheck.violations", invariant=violation.invariant
        ).inc()
    # Record the violation, then dump the flight-recorder window before
    # it unwinds the stack (the dump is a no-op unless the recorder has
    # an autodump path).
    rec = tele.flightrec
    if rec.enabled:
        rec.fault(
            "invariant_violation", violation.sim_time, violation.invariant,
            detail={"subject": violation.subject},
        )
    rec.maybe_autodump(
        f"invariant:{violation.invariant}", sim_time=violation.sim_time
    )
    if report is not None:
        report.add(violation)
        return
    raise violation
