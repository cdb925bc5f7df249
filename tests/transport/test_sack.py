"""Tests for SACK-based loss recovery: scoreboard, pipe, hole repair."""

import pytest

from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.simnet.packet import MSS_BYTES as M, make_ack_packet
from repro.transport import CubicSender, TcpSender, TcpSink
from repro.transport.sink import ByteIntervalSet


class TestByteIntervalSetSackOps:
    def test_covers(self):
        s = ByteIntervalSet()
        s.add(100, 200)
        assert s.covers(100)
        assert s.covers(199)
        assert not s.covers(200)
        assert not s.covers(99)

    def test_prune_below(self):
        s = ByteIntervalSet()
        s.add(0, 100)
        s.add(200, 300)
        s.prune_below(250)
        assert s._intervals == [(250, 300)]
        assert s.total_bytes == 50

    def test_prune_below_everything(self):
        s = ByteIntervalSet()
        s.add(0, 100)
        s.prune_below(500)
        assert s._intervals == []

    def test_prune_noop(self):
        s = ByteIntervalSet()
        s.add(100, 200)
        s.prune_below(50)
        assert s._intervals == [(100, 200)]


def make_sender(flow_size=100_000):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    TcpSink(sim, top.receivers[0], spec)
    sender = TcpSender(sim, top.senders[0], spec, flow_size)
    return sim, top, spec, sender


class TestScoreboard:
    def ack(self, spec, cum, blocks=(), rtx=False):
        ack = make_ack_packet(spec.flow_id, spec.dst, spec.src, cum)
        ack.sack_blocks = tuple(blocks)
        ack.is_retransmit = rtx
        return ack

    def test_sack_blocks_recorded(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sender.snd_nxt = 10 * M
        sender.handle_packet(self.ack(spec, 0, [(2 * M, 4 * M)]))
        assert sender._sacked.covers(2 * M)
        assert not sender._sacked.covers(4 * M)

    def test_pipe_excludes_sacked(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sender.snd_nxt = 10 * M
        assert sender.pipe_segments == pytest.approx(10.0)
        sender.handle_packet(self.ack(spec, 0, [(2 * M, 5 * M)]))
        assert sender.pipe_segments == pytest.approx(7.0)

    def test_cumulative_ack_prunes_scoreboard(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sender.snd_nxt = 10 * M
        sender.handle_packet(self.ack(spec, 0, [(2 * M, 5 * M)]))
        sender.handle_packet(self.ack(spec, 6 * M))
        assert sender._sacked.total_bytes == 0

    def test_stale_blocks_beyond_snd_nxt_ignored(self):
        """Regression: after an RTO rewinds snd_nxt (go-back-N) and
        clears the scoreboard, a straggler ACK carrying pre-rewind SACK
        blocks must not re-admit bytes beyond the send horizon — the
        scoreboard would then cover more than is outstanding."""
        sim, top, spec, sender = make_sender()
        sender.start()
        sender.snd_nxt = M  # post-RTO horizon: one segment outstanding
        sender.handle_packet(self.ack(spec, 0, [(M, 4 * M)]))
        assert sender._sacked.total_bytes == 0
        # A block straddling the horizon keeps only its in-horizon part.
        sender.snd_nxt = 2 * M
        sender.handle_packet(self.ack(spec, 0, [(M, 4 * M)]))
        assert sender._sacked.total_bytes == M
        assert sender._sacked.covers(M) and not sender._sacked.covers(2 * M)
        outstanding = sender.snd_nxt - sender.snd_una
        assert sender._sacked.total_bytes <= outstanding

    def test_next_hole_skips_sacked(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sender.snd_nxt = 10 * M
        sender.recovery_point = 10 * M
        sender.handle_packet(self.ack(spec, 0, [(M, 3 * M)]))
        sender.handle_packet(self.ack(spec, 0, [(M, 3 * M)]))
        # First hole is segment 0; after that, the sacked range is skipped.
        assert sender._next_hole() in (0, 3 * M)

    def test_three_dupacks_trigger_recovery_and_repair(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sim.run(until=0.01)  # initial window sent
        sender.snd_nxt = 10 * M
        sender.cwnd = 10.0
        before = sender.stats.retransmits
        for __ in range(3):
            sender.handle_packet(self.ack(spec, 0, [(M, 4 * M)]))
        assert sender.in_recovery
        assert sender.stats.fast_retransmits == 1
        assert sender.stats.retransmits > before
        # The repaired segment is the un-sacked hole at 0.
        assert 0 in sender._recovery_retransmitted

    def test_full_ack_exits_recovery(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sim.run(until=0.01)
        sender.snd_nxt = 10 * M
        sender.cwnd = 10.0
        for __ in range(3):
            sender.handle_packet(self.ack(spec, 0, [(M, 4 * M)]))
        assert sender.in_recovery
        sender.handle_packet(self.ack(spec, 10 * M))
        assert not sender.in_recovery
        assert sender._recovery_retransmitted == set()

    def test_rto_clears_scoreboard(self):
        sim, top, spec, sender = make_sender()
        sender.start()
        sender.snd_nxt = 10 * M
        sender.handle_packet(self.ack(spec, 0, [(2 * M, 4 * M)]))
        sender._on_rto()
        assert sender._sacked.total_bytes == 0
        assert not sender.in_recovery


class TestSackEndToEnd:
    def test_burst_loss_recovers_without_timeout(self):
        """A single burst of drops in a large window should be repaired by
        SACK-driven fast recovery, not by RTO."""
        sim = Simulator()
        config = DumbbellConfig(
            n_senders=1,
            bottleneck_bandwidth_bps=8_000_000.0,
            rtt_s=0.08,
            buffer_bdp_multiple=0.6,
        )
        top = DumbbellTopology(sim, config)
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = CubicSender(sim, top.senders[0], spec, 3_000_000, done.append)
        sender.start()
        sim.run(until=120.0)
        assert done
        assert top.bottleneck_queue.stats.dropped_packets > 0
        assert sender.stats.fast_retransmits >= 1
        # SACK keeps RTO rare even with bursty slow-start losses (a lost
        # retransmission still needs the timer, so a couple are expected).
        assert sender.stats.timeouts <= 3
        assert sender.stats.fast_retransmits > sender.stats.timeouts
        # The transfer is not RTO-dominated: 3 MB at 8 Mbps has a 3 s
        # floor; heavy timeout stalls would blow far past 10 s.
        assert sender.stats.duration < 10.0

    def test_no_spurious_retransmits_on_clean_path(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = CubicSender(sim, top.senders[0], spec, 1_000_000)
        sender.start()
        sim.run(until=60.0)
        assert sender.stats.retransmits == 0
        assert sender.stats.timeouts == 0
