"""Shared fixtures for the Phi control-plane tests."""

from repro.phi.context import CongestionContext

#: The context of a quiet network at time zero: what the stub backends serve.
IDLE = CongestionContext(utilization=0.0, queue_delay_s=0.0, competing_senders=0.0)


def outstanding_leases(handle):
    """A replica handle's leases issued, not released and not TTL-expired:
    its view of ``n``'s composition."""
    handle._expire_lease_log()
    return {lid: ts for lid, ts in handle.lease_log.items() if lid not in handle.released}
