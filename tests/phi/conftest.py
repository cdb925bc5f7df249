"""Shared fixtures for the Phi control-plane tests."""

from repro.phi.context import CongestionContext

#: The context of a quiet network at time zero: what the stub backends serve.
IDLE = CongestionContext(utilization=0.0, queue_delay_s=0.0, competing_senders=0.0)


def outstanding_leases(server):
    """A server's leases issued, not released and not TTL-expired: its
    view of ``n``'s composition."""
    server._expire_leases()
    return {lid: ts for ts, lid in server._leases}


def released_leases(server):
    """A server's release log, as of its clock."""
    server._expire_leases()
    return {lid: ts for ts, lid in server._released}
