"""Regression: ACKs echoing a send time of exactly 0.0 are RTT-sampled.

A flow whose first segment leaves at sim time zero produces ACKs with
``echo_timestamp == 0.0``.  The old guard (``echo_timestamp > 0``)
silently discarded those samples, so the very first RTT measurement of
every run — the one taken on an empty queue, i.e. the best min-RTT
estimate — was lost.  The guard is now ``is not None`` with ``None`` as
the explicit no-echo sentinel.
"""

import math

from repro.remy import WhiskerTable
from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Simulator,
    make_ack_packet,
)
from repro.transport import RemySender, TcpSink
from repro.transport.base import TcpSender


def bare_sender(sender_cls=TcpSender, **kwargs):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    TcpSink(sim, top.receivers[0], spec)
    sender = sender_cls(sim, top.senders[0], spec, 100_000, **kwargs)
    return sim, sender, spec


def ack_at(sim, sender, spec, t, echo):
    ack = make_ack_packet(spec.flow_id, spec.dst, spec.src, 0)
    ack.echo_timestamp = echo
    sim.schedule_at(t, sender.handle_packet, ack)


class TestZeroTimestampEcho:
    def test_echo_of_time_zero_is_sampled(self):
        sim, sender, spec = bare_sender()
        ack_at(sim, sender, spec, 0.1, echo=0.0)
        sim.run()
        assert sender.stats.rtt_samples == [0.1]
        assert sender.stats.min_rtt == 0.1

    def test_missing_echo_is_skipped(self):
        sim, sender, spec = bare_sender()
        ack_at(sim, sender, spec, 0.1, echo=None)
        sim.run()
        assert sender.stats.rtt_samples == []
        assert math.isinf(sender.stats.min_rtt)

    def test_remy_sender_tolerates_missing_echo(self):
        sim, sender, spec = bare_sender(RemySender, table=WhiskerTable())
        ack_at(sim, sender, spec, 0.1, echo=None)
        ack_at(sim, sender, spec, 0.2, echo=0.0)
        sim.run()
        assert sender.stats.rtt_samples == [0.2]


class TestFirstSampleEndToEnd:
    def test_flow_starting_at_time_zero_samples_first_rtt(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = TcpSender(sim, top.senders[0], spec, 20_000, done.append)
        sender.start()  # first segment leaves at exactly t = 0
        sim.run(until=30.0)
        assert done and sender.stats.completed
        # The first ACK of the run (echo 0.0, empty queues) is the best
        # min-RTT estimate and must be present.
        first_sample = sender.stats.rtt_samples[0]
        assert first_sample == sender.stats.min_rtt
        assert first_sample > 0
