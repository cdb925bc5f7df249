"""Shared guard: no test may leak an active flight recorder or session."""

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def _reset_telemetry(monkeypatch):
    # Restored after the test: whatever session it activated goes.
    monkeypatch.setattr(telemetry, "_active", telemetry.session())
