"""Tests for the Outage fault cutting targets, mesh edges and links
together (a link through the test-local ``LinkDrop``), and the
lease-expiry-vs-outage race on the control plane."""

import pytest

from repro.phi.channel import ControlChannel
from repro.phi.replication import ReplicatedContextService, ReplicationConfig
from repro.phi.server import ConnectionReport, ContextServer
from repro.simnet import Outage, Simulator, make_data_packet
from repro.simnet.link import Link

from tests.simnet.linkdrop import LinkDrop


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, packet, link):
        self.packets.append((self.sim.now, packet))


class FakeTarget:
    def __init__(self):
        self.downs = 0
        self.ups = 0

    def mark_down(self):
        self.downs += 1

    def mark_up(self):
        self.ups += 1


class FakeMesh:
    def __init__(self):
        self.severed = set()

    def sever(self, i, j):
        self.severed.add((i, j))

    def heal(self, i, j):
        self.severed.discard((i, j))


def simple_link(sim, bw=8e6, delay=0.001):
    link = Link(sim, "L", bw, delay)
    dst = Collector(sim)
    link.attach(dst)
    return link, dst


def send_at(sim, link, t, seq):
    sim.schedule_at(t, lambda: link.send(make_data_packet(1, "a", "b", seq, 100)))


class TestMultiTargetOutage:
    def test_multi_target_fails_and_heals_as_one(self):
        sim = Simulator()
        targets = [FakeTarget() for _ in range(3)]
        Outage(sim, 1.0, 2.0, targets=targets)
        mid = []
        sim.schedule_at(2.0, lambda: mid.extend(t.downs for t in targets))
        sim.run()
        assert mid == [1, 1, 1]
        assert all(t.downs == 1 and t.ups == 1 for t in targets)

    def test_empty_target_list_rejected(self):
        with pytest.raises(ValueError):
            Outage(Simulator(), 1.0, 1.0, targets=[])


class TestPartitionValidation:
    def test_needs_a_path(self):
        with pytest.raises(ValueError):
            Outage(Simulator(), 1.0, 1.0)

    def test_edges_need_mesh(self):
        with pytest.raises(ValueError):
            Outage(Simulator(), 1.0, 1.0, edges=[(0, 1)])

    def test_rejects_bad_window(self):
        sim = Simulator()
        target = FakeTarget()
        with pytest.raises(ValueError):
            Outage(sim, 1.0, 0.0, targets=[target])
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            Outage(sim, 1.0, 1.0, targets=[target])


class TestPartitionSeversEverything:
    def test_targets_mesh_and_links_cut_then_healed(self):
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        target = FakeTarget()
        mesh = FakeMesh()
        partition = Outage(
            sim, 1.0, 2.0,
            targets=[target, drop], mesh=mesh, edges=[(0, 2), (1, 2)],
        )
        state = {}
        sim.schedule_at(
            2.0,
            lambda: state.update(
                severed=set(mesh.severed),
                downs=target.downs,
                ups=target.ups,
            ),
        )
        send_at(sim, link, 2.0, 1)     # inside: blackholed
        send_at(sim, link, 4.0, 2)     # after heal: delivered
        sim.run()
        assert state["severed"] == {(0, 2), (1, 2)}
        assert state["downs"] == 1 and state["ups"] == 0
        assert drop.dropped == 1
        assert [p.seq for _t, p in dst.packets] == [2]
        assert mesh.severed == set()
        assert target.downs == 1 and target.ups == 1
        assert partition.end_s == 3.0

    def test_composes_with_link_flap(self):
        """A flap stacked on a partitioned link: once the flap is up again
        the partition still cuts the link; once both have ended the link
        delivers."""
        sim = Simulator()
        link, dst = simple_link(sim)
        drop = LinkDrop(link)
        # Flap: down [0.5, 1.5), up after. Partition: [1.0, 3.0).
        Outage(sim, 0.5, 1.0, targets=[drop])
        Outage(sim, 1.0, 2.0, targets=[drop, FakeTarget()])
        send_at(sim, link, 1.6, 1)     # flap up again, partition active
        send_at(sim, link, 3.5, 2)     # both over: delivered
        sim.run()
        assert drop.dropped == 1 and drop.down == 0
        assert [p.seq for _t, p in dst.packets] == [2]

    def test_nests_with_server_outage_downmarks(self):
        """Two overlapping outages on the same channel: the channel stays
        down until BOTH have ended."""
        sim = Simulator()
        target = FakeTarget()
        Outage(sim, 1.0, 3.0, targets=[target])
        Outage(sim, 2.0, 3.0, targets=[target])
        probes = {}
        for t in (0.5, 1.5, 3.5, 4.5, 5.5):
            sim.schedule_at(t, lambda t=t: probes.update({t: target.downs == target.ups}))
        sim.run()
        assert probes == {0.5: True, 1.5: False, 3.5: False, 4.5: False, 5.5: True}


class TestLeaseExpiryOutageRace:
    """Satellite: a lease TTL expiring *inside* an outage window must
    not corrupt the lease table — clean re-acquire after heal, and
    the server's ``n`` never goes negative."""

    def _drive(self, sim, server, channel, observed):
        def lookup_at(t):
            def attempt():
                channel.call_lookup()  # RpcResult; failures are fine
                observed.append((t, server.current_context().competing_senders))
            sim.schedule_at(t, attempt)

        return lookup_at

    def test_ttl_expiry_inside_outage_window(self):
        sim = Simulator()
        server = ContextServer(sim, 10e6, lease_ttl_s=2.0)
        channel = ControlChannel(sim, server)
        observed = []
        lookup_at = self._drive(sim, server, channel, observed)

        lookup_at(0.5)                 # lease issued at 0.5, expires 2.5
        Outage(sim, 1.0, 3.0, targets=[channel])
        lookup_at(2.0)                 # inside outage: no lease issued
        # Report for the (by now expired) lease lands after heal: the
        # FIFO release must not drive the count negative.
        sim.schedule_at(
            4.5,
            lambda: channel.call_report(
                ConnectionReport(
                    flow_id=1,
                    reported_at=sim.now,
                    bytes_transferred=1000,
                    duration_s=1.0,
                    mean_rtt_s=0.05,
                    min_rtt_s=0.04,
                    loss_indicator=0.0,
                )
            ),
        )
        lookup_at(5.0)                 # clean re-acquire post-heal
        probe = []
        sim.schedule_at(5.5, lambda: probe.append(server.current_context().competing_senders))
        sim.run()
        counts = [count for _, count in observed]
        assert observed[0] == (0.5, 1)
        assert observed[1] == (2.0, 1)   # outage blocked the lookup
        assert observed[2] == (5.0, 1)   # expired lease gone, new one held
        assert all(count >= 0 for count in counts)
        assert probe == [1]

    def test_expiry_race_on_replicated_plane(self):
        """Same race through the replicated service: leases issued on a
        replica that goes down TTL-expire everywhere, and no replica's
        count goes negative after heal."""
        sim = Simulator()
        service = ReplicatedContextService(
            sim, 10e6,
            config=ReplicationConfig(n_replicas=2, anti_entropy_period_s=0.5),
            lease_ttl_s=2.0,
        )
        channels = [
            ControlChannel(sim, service.handle(i)) for i in range(2)
        ]
        sim.schedule_at(0.4, channels[0].call_lookup)
        Outage(sim, 1.0, 3.0, targets=[channels[0]], mesh=service,
                  edges=[(0, 1)])
        counts = []
        for t in (0.9, 2.0, 4.5, 5.5):
            sim.schedule_at(
                t,
                lambda: counts.append(
                    [s.current_context().competing_senders for s in service.servers]
                ),
            )
        sim.run(until=6.0)
        # Merged before the partition: both replicas saw the lease.
        assert counts[0] == [1, 1]
        # TTL (2s) fires during the partition on both sides.
        assert counts[2] == [0, 0]
        assert counts[3] == [0, 0]
        assert all(c >= 0 for snapshot in counts for c in snapshot)
