"""Property-based tests for the context server's estimators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phi.server import ConnectionReport, ContextServer
from repro.simnet import Simulator


def report_strategy(max_time=100.0):
    return st.builds(
        ConnectionReport,
        flow_id=st.integers(min_value=1, max_value=10_000),
        reported_at=st.floats(min_value=0.0, max_value=max_time),
        bytes_transferred=st.integers(min_value=0, max_value=10**9),
        duration_s=st.floats(min_value=0.001, max_value=50.0),
        mean_rtt_s=st.floats(min_value=0.0, max_value=5.0),
        min_rtt_s=st.floats(min_value=0.0, max_value=5.0),
        loss_indicator=st.floats(min_value=0.0, max_value=1.0),
    )


class TestServerInvariants:
    @given(st.lists(report_strategy(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_utilization_always_in_unit_interval(self, reports):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        sim.schedule(100.0, lambda: None)
        sim.run()
        for report in reports:
            server.report(report)
        u = server.estimated_utilization()
        assert 0.0 <= u <= 1.0

    @given(st.lists(report_strategy(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_context_always_constructible(self, reports):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        sim.schedule(100.0, lambda: None)
        sim.run()
        for report in reports:
            server.lookup()
            server.report(report)
        ctx = server.current_context()
        assert 0.0 <= ctx.utilization <= 1.0
        assert ctx.queue_delay_s >= 0.0
        assert ctx.competing_senders >= 0.0
        assert ctx.level() is not None

    @given(
        st.lists(st.booleans(), min_size=1, max_size=100),
    )
    @settings(max_examples=60)
    def test_active_counter_never_negative(self, operations):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        for is_lookup in operations:
            if is_lookup:
                server.lookup()
            else:
                server.report(
                    ConnectionReport(
                        flow_id=1,
                        reported_at=0.0,
                        bytes_transferred=1000,
                        duration_s=0.1,
                        mean_rtt_s=0.15,
                        min_rtt_s=0.15,
                        loss_indicator=0.0,
                    )
                )
            assert server.current_context().competing_senders >= 0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_queue_delay_ewma_bounded_by_inputs(self, first_delay, second_delay):
        sim = Simulator()
        server = ContextServer(sim, 15e6)
        for delay in (first_delay, second_delay):
            server.report(
                ConnectionReport(
                    flow_id=1,
                    reported_at=0.0,
                    bytes_transferred=1000,
                    duration_s=0.1,
                    mean_rtt_s=0.15 + delay,
                    min_rtt_s=0.15,
                    loss_indicator=0.0,
                )
            )
        estimate = server.current_context().queue_delay_s
        low, high = sorted((first_delay, second_delay))
        assert low - 1e-9 <= estimate <= high + 1e-9
