"""Tests for the failure-aware control channel (RPCs, outages, accounting)."""

import pytest

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import ControlChannel, RpcResult, RpcStatus
from repro.phi.server import ContextServer
from repro.simnet import Outage, Simulator

from .conftest import IDLE


class FakeBackend:
    """Records protocol calls; always answers."""

    def __init__(self):
        self.lookups = 0
        self.reports = []

    def lookup(self):
        self.lookups += 1
        return IDLE

    def report(self, report):
        self.reports.append(report)


def make_report():
    from repro.phi.server import ConnectionReport

    return ConnectionReport(
        flow_id=1,
        reported_at=0.0,
        bytes_transferred=1000,
        duration_s=1.0,
        mean_rtt_s=0.16,
        min_rtt_s=0.15,
        loss_indicator=0.0,
    )


class TestHealthyChannel:
    def test_passthrough_lookup_and_report(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        ctx = channel.call_lookup().value
        assert backend.lookups == 1
        assert ctx.utilization == 0.0
        assert channel.call_report(make_report()).status is RpcStatus.OK
        assert len(backend.reports) == 1

    def test_result_accounting(self):
        with flightrec.use() as rec:
            channel = ControlChannel(Simulator(), FakeBackend())
            result = channel.call_lookup()
        assert result.status is RpcStatus.OK and result.value == IDLE
        (record,) = iter_layer(rec.records(), "phi")
        assert (record["kind"], record["detail"]) == ("rpc", {"status": "ok"})

    def test_works_against_real_server(self):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        channel = ControlChannel(sim, server)
        assert channel.call_lookup().status is RpcStatus.OK
        assert server.current_context().competing_senders == 1


class TestRetries:
    """A call makes one attempt: RPC time is not simulated, so a retry in
    the same instant would meet the same down-mark."""

    def test_exhausted_retries_fail(self):
        # The retry budget is zero: a failed call is one failed attempt,
        # accounted once.
        with telemetry.use() as tele:
            channel = ControlChannel(Simulator(), FakeBackend())
            channel.mark_down()
            assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
            counters = tele.registry.snapshot()["counters"]
        assert counters == {"phi.rpc_calls{op=lookup,status=server_down}": 1.0}

    def test_failed_call_returns_its_status(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        channel.mark_down()
        result = channel.call_lookup()
        assert result == RpcResult(RpcStatus.SERVER_DOWN)
        assert backend.lookups == 0


class TestBackendRefusal:
    """A backend that raises is a bug: the exception propagates, an
    ``OSError`` as much as any other."""

    def test_other_exceptions_propagate(self):
        for error in (KeyError("not a refusal"), ConnectionError("no server")):
            class BuggyBackend(FakeBackend):
                def lookup(self, error=error):
                    raise error

            channel = ControlChannel(Simulator(), BuggyBackend())
            with pytest.raises(type(error)):
                channel.call_lookup()

    def test_a_raising_report_propagates(self):
        class BuggyBackend(FakeBackend):
            def report(self, report):
                raise ConnectionError("no server")

        channel = ControlChannel(Simulator(), BuggyBackend())
        with pytest.raises(ConnectionError):
            channel.call_report(make_report())

    def test_a_raising_call_records_no_outcome(self):
        class BuggyBackend(FakeBackend):
            def lookup(self):
                raise ConnectionError("no server")

        with telemetry.use() as tele, flightrec.use() as rec:
            channel = ControlChannel(Simulator(), BuggyBackend())
            with pytest.raises(ConnectionError):
                channel.call_lookup()
            counters = tele.registry.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("phi.rpc_calls")]
        assert [r for r in iter_layer(rec.records(), "phi") if r["kind"] == "rpc"] == []


class TestOutages:
    def test_marks_nest(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        channel.mark_down()
        channel.mark_down()
        channel.mark_up()
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        channel.mark_up()
        assert channel.call_lookup().status is RpcStatus.OK
        channel.mark_up()  # extra up is a no-op
        assert channel.call_lookup().status is RpcStatus.OK

    def test_scheduled_outage_window(self):
        sim = Simulator()
        backend = FakeBackend()
        channel = ControlChannel(sim, backend)
        Outage(sim, 1.0, 2.0, targets=[channel])
        outcomes = {}
        for at, label in ((0.5, "before"), (2.0, "during"), (3.5, "after")):
            sim.schedule_at(
                at, lambda label=label: outcomes.update(
                    {label: channel.call_lookup().status is RpcStatus.OK})
            )
        sim.run()
        assert outcomes == {"before": True, "during": False, "after": True}

    def test_outage_starting_now_takes_effect_immediately(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        Outage(sim, 0.0, 1.0, targets=[channel])
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        sim.run(until=1.5)
        assert channel.call_lookup().status is RpcStatus.OK

    def test_server_outage_fault_drives_channel(self):
        sim = Simulator()
        channel = ControlChannel(sim, FakeBackend())
        Outage(sim, 1.0, 1.0, targets=[channel])
        sim.run(until=1.5)
        assert channel.call_lookup().status is RpcStatus.SERVER_DOWN
        sim.run(until=2.5)
        assert channel.call_lookup().status is RpcStatus.OK
