"""A test-local data-plane fault: drop one link's deliveries.

:class:`LinkDrop` wraps one link's ``_deliver`` and drops a delivery
with probability ``p`` (drawn from ``rng``), and every delivery while it
is marked down.  It is an ``Outageable``, so a link outage over
[start, end) is ``Outage(sim, start, end - start, targets=[drop])``;
overlapping outages nest through its down-mark counter.  A link binds
``_deliver`` when it commits a packet, so install it before the traffic
it should see.  One per link: nothing composes or uninstalls.

A cut-through pair (``Link.cut_through``) posts no delivery of its own
at the router, and binds the egress's ``_deliver`` when the feeding link
commits, so a ``LinkDrop`` on either end first runs that pair hop by
hop: the packets it sees, and the draws it makes, are a plain link's.
"""


def _hop_by_hop(link):
    """Undo the cut-through ``link`` is either end of (before any traffic)."""
    feeder = link._feeder or link
    if feeder._cut is None:
        return
    assert not feeder._arrivals, "install a LinkDrop before the traffic it should see"
    for egress in feeder._cut.values():
        egress._feeder = None
    feeder.dst_node._feeds.remove(feeder)
    feeder._cut = None


class LinkDrop:
    def __init__(self, link, p=0.0, rng=None):
        self.link = link
        self.dropped = 0
        self.down = 0
        _hop_by_hop(link)
        deliver = link._deliver

        def hook(packet):
            if self.down or (p and rng.random() < p):
                self.dropped += 1
                return
            deliver(packet)

        link._deliver = hook

    def mark_down(self):
        self.down += 1

    def mark_up(self):
        self.down -= 1
