"""End-to-end packet and byte conservation audits.

Every packet offered to a link must be accounted for at all times:

- **queue law** (exact): ``enqueued == dequeued + flushed + queued``,
  in both packets and bytes (drops are counted before enqueue);
- **link transmitter law** (exact): ``offered == transmitted + queued +
  dropped + flushed + serializing`` where ``serializing`` is 1 packet
  when the transmitter is busy and 0 otherwise;
- **dequeue-armed law** (exact): a link's dequeue event is pending iff
  its queue is non-empty — a queued packet nobody will pull is a silent
  stall that no ledger shows (after a ``flush()`` the event may outlive
  the packets it was armed for; it fires as a no-op);
- **wire law** (inequality): ``transmitted - delivered - absorbed >= 0``
  — the residual is packets still propagating (in flight on the wire)
  or parked by a :class:`~repro.simnet.faults.DelaySpike`; ``absorbed``
  counts packets consumed by link faults (outages, flaps, random loss).
  The law is exact (residual == 0) only on a drained wire, which a run
  stopped at ``until=duration`` does not guarantee;
- **router law** (exact): ``received == forwarded + unroutable``;
- **host law** (inequality): ``discarded <= received`` (handled packets
  are dispatched to agents, which keep their own transport accounting).

Audits are cheap (counter arithmetic over existing ledgers — no
per-packet work), so they run after every checked scenario.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..simnet.faults import Outage, RandomLoss
from ..simnet.link import Link
from ..simnet.node import Host, Router
from ..simnet.queues import DropTailQueue
from .violations import InvariantViolation, ViolationReport, record_violation


def audit_queue(
    queue: DropTailQueue,
    name: str,
    sim_time: float = 0.0,
    report: Optional[ViolationReport] = None,
) -> None:
    """Check the exact queue conservation law (packets and bytes)."""
    stats = queue.stats
    queued_packets = len(queue)
    queued_bytes = queue.bytes_queued
    packet_residual = (
        stats.enqueued_packets
        - stats.dequeued_packets
        - stats.flushed_packets
        - queued_packets
    )
    if packet_residual != 0:
        record_violation(
            InvariantViolation(
                "conservation.queue_packets",
                name,
                f"enqueued {stats.enqueued_packets} != dequeued "
                f"{stats.dequeued_packets} + flushed {stats.flushed_packets} "
                f"+ queued {queued_packets}",
                sim_time=sim_time,
                details={"residual_packets": packet_residual},
            ),
            report,
        )
    byte_residual = (
        stats.enqueued_bytes
        - stats.dequeued_bytes
        - stats.flushed_bytes
        - queued_bytes
    )
    if byte_residual != 0:
        record_violation(
            InvariantViolation(
                "conservation.queue_bytes",
                name,
                f"enqueued {stats.enqueued_bytes}B != dequeued "
                f"{stats.dequeued_bytes}B + flushed {stats.flushed_bytes}B "
                f"+ queued {queued_bytes}B",
                sim_time=sim_time,
                details={"residual_bytes": byte_residual},
            ),
            report,
        )
    if report is not None:
        report.counted(2)


def fault_absorbed_packets(link: Link, faults: Iterable[object] = ()) -> int:
    """Packets consumed by link faults attributable to ``link``.

    Counts black holes (outages, flaps) and random loss; packets parked
    by a delay spike are *not* absorbed — they are in flight and will
    resurface, which is why the wire law stays an inequality on links
    that ever carried a spike.
    """
    absorbed = 0
    for fault in faults:
        if isinstance(fault, Outage):
            absorbed += fault.packets_blackholed_on(link)
        elif isinstance(fault, RandomLoss) and fault.link is link:
            absorbed += fault.packets_dropped
    return absorbed


def audit_link(
    link: Link,
    sim_time: float = 0.0,
    faults: Iterable[object] = (),
    report: Optional[ViolationReport] = None,
) -> None:
    """Check the link transmitter and dequeue-armed (exact) and wire
    (inequality) laws."""
    audit_queue(link.queue, f"{link.name}.queue", sim_time, report)

    queued_packets = len(link.queue)
    queued_bytes = link.queue.bytes_queued
    stats = link.queue.stats
    serializing = 1 if link.is_busy else 0
    packet_residual = (
        link.packets_offered
        - link.packets_transmitted
        - queued_packets
        - stats.dropped_packets
        - stats.flushed_packets
        - serializing
    )
    if packet_residual != 0:
        record_violation(
            InvariantViolation(
                "conservation.link_packets",
                link.name,
                f"offered {link.packets_offered} != transmitted "
                f"{link.packets_transmitted} + queued {queued_packets} "
                f"+ dropped {stats.dropped_packets} + flushed "
                f"{stats.flushed_packets} + serializing {serializing}",
                sim_time=sim_time,
                details={"residual_packets": packet_residual},
            ),
            report,
        )
    # Bytes: the serializing packet's size isn't tracked separately, so
    # the byte residual must equal zero when idle and be positive (the
    # packet on the wire) when busy.
    byte_residual = (
        link.bytes_offered
        - link.bytes_transmitted
        - queued_bytes
        - stats.dropped_bytes
        - stats.flushed_bytes
    )
    byte_law_broken = byte_residual < 0 or (byte_residual == 0) == link.is_busy
    if byte_law_broken:
        record_violation(
            InvariantViolation(
                "conservation.link_bytes",
                link.name,
                f"byte residual {byte_residual} inconsistent with "
                f"transmitter busy={link.is_busy}",
                sim_time=sim_time,
                details={"residual_bytes": byte_residual},
            ),
            report,
        )

    armed = link._dequeue_armed
    if armed != (queued_packets > 0) and not (armed and stats.flushed_packets):
        record_violation(
            InvariantViolation(
                "conservation.link_dequeue_armed",
                link.name,
                f"dequeue event pending={armed} with {queued_packets} packets queued",
                sim_time=sim_time,
                details={"queued_packets": queued_packets},
            ),
            report,
        )

    absorbed = fault_absorbed_packets(link, faults)
    wire_residual = link.packets_transmitted - link.packets_delivered - absorbed
    if wire_residual < 0:
        record_violation(
            InvariantViolation(
                "conservation.link_wire",
                link.name,
                f"delivered {link.packets_delivered} + fault-absorbed "
                f"{absorbed} exceeds transmitted {link.packets_transmitted}",
                sim_time=sim_time,
                details={"wire_residual": wire_residual},
            ),
            report,
        )
    if report is not None:
        report.counted(4)


def audit_router(
    router: Router,
    sim_time: float = 0.0,
    report: Optional[ViolationReport] = None,
) -> None:
    """Check the exact router law: received == forwarded + unroutable."""
    residual = (
        router.packets_received
        - router.packets_forwarded
        - router.packets_unroutable
    )
    if residual != 0:
        record_violation(
            InvariantViolation(
                "conservation.router",
                router.name,
                f"received {router.packets_received} != forwarded "
                f"{router.packets_forwarded} + unroutable "
                f"{router.packets_unroutable}",
                sim_time=sim_time,
                details={"residual_packets": residual},
            ),
            report,
        )
    if report is not None:
        report.counted(1)


def audit_host(
    host: Host,
    sim_time: float = 0.0,
    report: Optional[ViolationReport] = None,
) -> None:
    """Check the host law: discarded packets never exceed received."""
    if host.packets_discarded > host.packets_received:
        record_violation(
            InvariantViolation(
                "conservation.host",
                host.name,
                f"discarded {host.packets_discarded} > received "
                f"{host.packets_received}",
                sim_time=sim_time,
                details={
                    "received": host.packets_received,
                    "discarded": host.packets_discarded,
                },
            ),
            report,
        )
    if report is not None:
        report.counted(1)


def audit_topology(
    topology,
    sim_time: float = 0.0,
    faults: Iterable[object] = (),
    report: Optional[ViolationReport] = None,
) -> None:
    """Audit every link, router, and host of a dumbbell-like topology.

    Works for anything exposing ``links`` (name -> Link mapping or an
    iterable of links) plus optional ``senders``/``receivers`` host lists
    and ``left_router``/``right_router``/``routers`` attributes.
    """
    links = topology.links
    link_iter = links.values() if hasattr(links, "values") else links
    for link in link_iter:
        audit_link(link, sim_time, faults, report)
    routers = list(getattr(topology, "routers", []))
    for attr in ("left_router", "right_router"):
        router = getattr(topology, attr, None)
        if router is not None:
            routers.append(router)
    for router in routers:
        audit_router(router, sim_time, report)
    for host in (*getattr(topology, "senders", []), *getattr(topology, "receivers", [])):
        audit_host(host, sim_time, report)
