"""Direct tests for channel accounting and RPC telemetry."""

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import ControlChannel, RpcStatus
from repro.simnet import Simulator

from .conftest import IDLE


class _Backend:
    def __init__(self) -> None:
        self.lookups = 0

    def lookup(self):
        self.lookups += 1
        return IDLE

    def report(self, report):
        pass


class TestChannelStats:
    """Every outcome is a ``phi.rpc_calls`` counter by status."""

    def test_success_accounting(self):
        with telemetry.use() as tele:
            channel = ControlChannel(Simulator(), _Backend())
            statuses = [channel.call_lookup().status for _ in range(2)]
            assert statuses == [RpcStatus.OK, RpcStatus.OK]
            counters = tele.registry.snapshot()["counters"]
        assert counters == {"phi.rpc_calls{op=lookup,status=ok}": 2.0}

    def test_failure_accounting_by_status(self):
        with telemetry.use() as tele:
            channel = ControlChannel(Simulator(), _Backend())
            channel.mark_down()
            statuses = [channel.call_lookup().status for _ in range(3)]
            counters = tele.registry.snapshot()["counters"]
        # The channel keeps no health record: every call reaches the
        # down-mark and fails there.
        assert statuses == [RpcStatus.SERVER_DOWN] * 3
        assert counters == {"phi.rpc_calls{op=lookup,status=server_down}": 3.0}


class TestChannelTelemetry:
    def _channel(self):
        sim = Simulator()
        return sim, ControlChannel(sim, _Backend())

    def test_rpc_metrics_for_mixed_outcomes(self):
        with telemetry.use() as tele, flightrec.use() as rec:
            sim, channel = self._channel()
            channel.call_lookup()  # ok
            channel.mark_down()
            channel.call_lookup()  # server_down
            channel.call_lookup()  # server_down
            channel.mark_up()
            channel.call_report(None)  # ok
            snapshot = tele.registry.snapshot()
        counters = snapshot["counters"]
        assert counters == {
            "phi.rpc_calls{op=lookup,status=ok}": 1.0,
            "phi.rpc_calls{op=lookup,status=server_down}": 2.0,
            "phi.rpc_calls{op=report,status=ok}": 1.0,
        }
        assert snapshot["histograms"] == {}
        # Every outcome is on the recorder's phi ring with its status and
        # sim time.
        records = list(iter_layer(rec.records(), "phi"))
        assert [(r["kind"], r["subject"]) for r in records] == [
            ("rpc", "lookup"), ("rpc", "lookup"), ("rpc", "lookup"), ("rpc", "report"),
        ]
        statuses = [r["detail"]["status"] for r in records]
        assert statuses == ["ok", "server_down", "server_down", "ok"]
        assert all(r["t"] == sim.now for r in records)

    def test_channel_works_with_telemetry_disabled(self):
        assert not telemetry.session().enabled
        _, channel = self._channel()
        assert channel.call_lookup().status is RpcStatus.OK
