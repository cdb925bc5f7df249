"""Parameter policies: congestion context -> TCP Cubic parameters.

A :class:`PolicyTable` stores, per :class:`CongestionLevel`, the Cubic
parameter triple found optimal for that level (by the offline sweep in
:mod:`repro.phi.optimizer`).  New connections look the policy up with
the context-server snapshot.

"The optimal case uses a larger initial window but a smaller slow start
threshold than the default case. And as we would expect, the optimal
settings of these parameters shift to be smaller as the link utilization
becomes higher."  :data:`REFERENCE_POLICY` encodes exactly that shape; it
is the shipped default for users who have not run their own sweep.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping

from ..transport.cubic import CubicParams
from .context import CongestionContext, CongestionLevel


class PolicyTable:
    """Maps congestion levels to Cubic parameter settings."""

    def __init__(self, entries: Mapping[CongestionLevel, CubicParams]) -> None:
        missing = set(CongestionLevel) - set(entries)
        if missing:
            raise ValueError(
                f"policy table must cover every congestion level; missing "
                f"{sorted(level.value for level in missing)}"
            )
        self._entries: Dict[CongestionLevel, CubicParams] = dict(entries)

    def params_for(self, context: CongestionContext) -> CubicParams:
        """The parameter triple for the given context snapshot."""
        return self._entries[context.level()]

    def params_for_level(self, level: CongestionLevel) -> CubicParams:
        """The parameter triple for an explicit level."""
        return self._entries[level]

    def as_dict(self) -> Dict[str, dict]:
        """Plain-dict form (keys are level names)."""
        return {
            level.value: params.as_dict() for level, params in self._entries.items()
        }

    def to_json(self) -> str:
        """Serialize for shipping alongside benches."""
        return json.dumps(self.as_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PolicyTable":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        entries = {
            CongestionLevel(name): CubicParams(**params)
            for name, params in payload.items()
        }
        return cls(entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyTable):
            return NotImplemented
        return self._entries == other._entries


#: A reference policy with the qualitative shape the paper reports: larger
#: initial windows than the default everywhere, slow-start thresholds far
#: below the "arbitrarily large" default, both shrinking as congestion
#: rises, and a sharper back-off (larger beta) under persistent load.
REFERENCE_POLICY = PolicyTable(
    {
        CongestionLevel.LOW: CubicParams(
            window_init=32.0, initial_ssthresh=128.0, beta=0.2
        ),
        CongestionLevel.MODERATE: CubicParams(
            window_init=16.0, initial_ssthresh=64.0, beta=0.3
        ),
        CongestionLevel.HIGH: CubicParams(
            window_init=4.0, initial_ssthresh=16.0, beta=0.5
        ),
        CongestionLevel.SEVERE: CubicParams(
            window_init=2.0, initial_ssthresh=4.0, beta=0.7
        ),
    }
)
