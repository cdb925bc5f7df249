"""IPFIX data model: flow records and sampled packet headers.

Section 2.1 works from "the IPFIX (IP Flow Information Export) data to
calculate the number of TCP flows (characterized by the number of unique
4-tuples <Src Ip, Src Port, Dst Ip, Dst Port>) per minute for each /24
subnet that the provider sends traffic to".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..simnet.bounds import check

FourTuple = Tuple[str, int, str, int]


def dst_slash24(dst_ip: str) -> str:
    """The /24 prefix of a dotted-quad IPv4 address (e.g. ``10.1.2.0/24``)."""
    parts = dst_ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {dst_ip!r}")
    return f"{parts[0]}.{parts[1]}.{parts[2]}.0/24"


def minute_slice(timestamp_s: float) -> int:
    """The 1-minute time-slice index for a timestamp."""
    if timestamp_s < 0:
        raise ValueError(f"timestamp must be >= 0: {timestamp_s}")
    return int(timestamp_s // 60)


@dataclass(frozen=True)
class EgressFlow:
    """One egress TCP flow as generated by the traffic model.

    ``packets`` is the flow's total packet count; packets are spread
    uniformly over ``[start_s, start_s + duration_s]`` for sampling.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    start_s: float
    duration_s: float
    packets: int

    def __post_init__(self) -> None:
        check("packets", self.packets, ge=1, integer=True)
        check("duration_s", self.duration_s, ge=0)

    @property
    def four_tuple(self) -> FourTuple:
        """The flow's 4-tuple identity."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)


@dataclass(frozen=True)
class SampledHeader:
    """One packet header reported to the collector by a sampling router."""

    four_tuple: FourTuple
    timestamp_s: float

    @property
    def dst_subnet(self) -> str:
        """Destination /24 of the sampled packet."""
        return dst_slash24(self.four_tuple[2])

    @property
    def minute(self) -> int:
        """Minute slice of the sample."""
        return minute_slice(self.timestamp_s)
