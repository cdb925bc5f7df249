"""A test-local data-plane fault: drop one link's deliveries.

:class:`LinkDrop` wraps one link's ``_deliver`` and drops a delivery
with probability ``p`` (drawn from ``rng``), and every delivery while it
is marked down.  It is an ``Outageable``, so a link outage over
[start, end) is ``Outage(sim, start, end - start, targets=[drop])``;
overlapping outages nest through its down-mark counter.  A link binds
``_deliver`` when a packet starts serializing, so install it before the
traffic it should see.  One per link: nothing composes or uninstalls.
"""


class LinkDrop:
    def __init__(self, link, p=0.0, rng=None):
        self.link = link
        self.dropped = 0
        self.down = 0
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
