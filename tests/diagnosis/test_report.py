"""Tests for incident report rendering."""

import pytest

from repro.diagnosis import (
    render_incident,
    severity_grade,
)
from repro.diagnosis.localize import LocalizedEvent


def event(asn="isp-a", metro="nyc", service=None, drop=0.9, start=100, end=124):
    return LocalizedEvent(
        asn=asn,
        metro=metro,
        service=service,
        start_bin=start,
        end_bin=end,
        affected_slices=2,
        mean_drop_fraction=drop,
    )


class TestSeverity:
    def test_grades(self):
        assert severity_grade(0.95).startswith("SEV-1")
        assert severity_grade(0.5).startswith("SEV-2")
        assert severity_grade(0.2).startswith("SEV-3")
        assert severity_grade(0.02).startswith("SEV-4")

    def test_validation(self):
        with pytest.raises(ValueError):
            severity_grade(1.5)


class TestRenderIncident:
    def test_network_event_report(self):
        report = render_incident(event())
        assert "SEV-1" in report.title
        assert "asn=isp-a, metro=nyc" in report.body
        assert "2.0 hours" in report.body
        assert "peering/NOC" in report.body

    def test_service_event_report(self):
        report = render_incident(
            event(asn=None, metro=None, service="voip", drop=0.5)
        )
        assert "voip on-call" in report.body

    def test_global_event_report(self):
        report = render_incident(
            event(asn=None, metro=None, service=None)
        )
        assert "global" in report.title
        assert "provider-side" in report.body

    def test_short_duration_in_minutes(self):
        report = render_incident(event(start=10, end=14))
        assert "20 minutes" in report.body
