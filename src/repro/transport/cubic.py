"""TCP Cubic with the paper's three tunable parameters.

The paper tunes exactly three knobs (its Tables 1 and 2):

- ``windowInit_`` — initial congestion window (default 2 segments),
- ``initial_ssthresh`` — initial slow-start threshold (default
  "arbitrarily large", 65K segments per RFC 5681),
- ``beta`` — where ``(1 - beta)`` is the multiplicative decrease factor
  applied on packet loss (default 0.2).

The window-growth law follows Ha, Rhee & Xu (2008): after a loss at
window ``W_max``, the window follows ``W(t) = C (t - K)^3 + W_max`` with
``K = cbrt(W_max * beta / C)``, plus the standard TCP-friendly region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from ..simnet.engine import Simulator
from ..simnet.node import Host
from ..simnet.packet import FlowSpec
from ..simnet.bounds import check
from .base import DEFAULT_DUPACK_THRESHOLD, TcpSender, check_window

#: Cubic's scaling constant (segments / s^3), as in ns-2 and Linux.
CUBIC_C = 0.4

#: The paper sets the "arbitrarily large" default ssthresh to 65K segments.
DEFAULT_INITIAL_SSTHRESH = 65536.0

#: Default initial window, per Table 1.
DEFAULT_WINDOW_INIT = 2.0

#: Default beta, per Table 1 ((1 - 0.2) = 0.8 decrease factor).
DEFAULT_BETA = 0.2


@dataclass(frozen=True)
class CubicParams:
    """The tunable triple from the paper's Tables 1 and 2.

    Instances are immutable and hashable so they can key policy caches in
    the Phi context server.
    """

    window_init: float = DEFAULT_WINDOW_INIT
    initial_ssthresh: float = DEFAULT_INITIAL_SSTHRESH
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        check_window(self.window_init, self.initial_ssthresh)
        check("beta", self.beta, gt=0, lt=1)

    @classmethod
    def default(cls) -> "CubicParams":
        """Table 1: the stock ns-2 TCP Cubic settings."""
        return cls()

    def as_dict(self) -> dict:
        """Plain-dict form for reports and serialization."""
        return {
            "window_init": self.window_init,
            "initial_ssthresh": self.initial_ssthresh,
            "beta": self.beta,
        }


def cubic_sweep_grid(
    ssthresh_range: Optional[List[float]] = None,
    window_init_range: Optional[List[float]] = None,
    beta_range: Optional[List[float]] = None,
) -> Iterator[CubicParams]:
    """Iterate the paper's Table-2 parameter grid.

    Defaults: ``initial_ssthresh`` and ``windowInit_`` sweep 2..256 in
    powers of two; ``beta`` sweeps 0.1..0.9 in steps of 0.1.
    """
    if ssthresh_range is None:
        ssthresh_range = [float(2 ** k) for k in range(1, 9)]  # 2..256
    if window_init_range is None:
        window_init_range = [float(2 ** k) for k in range(1, 9)]
    if beta_range is None:
        beta_range = [round(0.1 * k, 1) for k in range(1, 10)]  # 0.1..0.9
    for ssthresh in ssthresh_range:
        for window_init in window_init_range:
            for beta in beta_range:
                yield CubicParams(
                    window_init=window_init,
                    initial_ssthresh=ssthresh,
                    beta=beta,
                )


class CubicSender(TcpSender):
    """TCP Cubic sender."""

    flavour = "cubic"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
        *,
        params: Optional[CubicParams] = None,
        dupack_threshold: int = DEFAULT_DUPACK_THRESHOLD,
    ) -> None:
        self.params = params if params is not None else CubicParams.default()
        super().__init__(
            sim,
            host,
            spec,
            flow_size_bytes,
            on_complete,
            window_init=self.params.window_init,
            initial_ssthresh=self.params.initial_ssthresh,
            dupack_threshold=dupack_threshold,
        )
        self._w_max = 0.0
        self._epoch_start: Optional[float] = None
        self._k = 0.0
        self._origin_window = 0.0
        self._tcp_window = 0.0

    # ------------------------------------------------------------------
    # Cubic window law
    # ------------------------------------------------------------------
    def _begin_epoch(self) -> None:
        self._epoch_start = self.sim.now
        if self.cwnd < self._w_max:
            self._k = ((self._w_max - self.cwnd) / CUBIC_C) ** (1.0 / 3.0)
            self._origin_window = self._w_max
        else:
            self._k = 0.0
            self._origin_window = self.cwnd
        self._tcp_window = self.cwnd

    def _cubic_target(self, elapsed: float, rtt: float) -> float:
        t = elapsed + rtt
        return CUBIC_C * (t - self._k) ** 3 + self._origin_window

    def _tcp_friendly_window(self, elapsed: float, rtt: float) -> float:
        if rtt <= 0:
            return 0.0
        beta = self.params.beta
        # Ha, Rhee & Xu (2008), eq. 4: W_tcp(t) grows linearly from the
        # post-decrease window at the epoch start (``_tcp_window``), NOT
        # from ``_origin_window`` — the latter is W_max in the concave
        # region and equals cwnd in the convex region, which would let the
        # "friendly" estimate race ahead of Reno's actual pace.  Time is
        # evaluated at ``elapsed + rtt`` to match ``_cubic_target`` (both
        # laws predict the window one RTT ahead).
        t = elapsed + rtt
        return self._tcp_window + (3.0 * beta / (2.0 - beta)) * (t / rtt)

    def _on_ack_congestion_avoidance(self, acked_segments: float) -> None:
        if self._epoch_start is None:
            self._begin_epoch()
        assert self._epoch_start is not None
        rtt = self.rtt.srtt if self.rtt.srtt is not None else 0.1
        elapsed = self.sim.now - self._epoch_start
        target = self._cubic_target(elapsed, rtt)
        if target > self.cwnd:
            increment = (target - self.cwnd) / max(self.cwnd, 1.0)
            # Never grow faster than slow start (1 segment per ACK).
            self.cwnd += min(increment * acked_segments, acked_segments)
        else:
            # In the plateau region grow very slowly, as CUBIC does.
            self.cwnd += 0.01 * acked_segments / max(self.cwnd, 1.0)
        friendly = self._tcp_friendly_window(elapsed, rtt)
        if friendly > self.cwnd:
            self.cwnd = friendly

    def _on_loss_event(self) -> None:
        beta = self.params.beta
        self._w_max = self.cwnd
        self.cwnd = max(1.0, self.cwnd * (1.0 - beta))
        self.ssthresh = max(2.0, self.cwnd)
        self._epoch_start = None

    def _on_timeout_event(self) -> None:
        beta = self.params.beta
        self._w_max = max(self.cwnd, self.flight_segments)
        self.ssthresh = max(2.0, self.flight_segments * (1.0 - beta))
        self.cwnd = 1.0
        self._epoch_start = None


class NewRenoSender(TcpSender):
    """Classic NewReno sender (the base class's policies, named)."""

    flavour = "newreno"
