"""The hot path's cost as a count: Python frames per goodput segment.

A wall-time bound cannot be held on a shared runner — the same commit
reads 25% apart from one minute to the next — but the number of Python
function calls a run makes is a function of the code and the seed, and it
is what the per-packet path is priced in: a frame costs about as much as
the few attribute updates a layer does for one packet.  The path is meant
to cost one frame per layer a packet crosses (``Host.send``, ``Link.send``,
``post_at``, ``Link._deliver``, ``Router.receive``, …, one queue operation
when it queues); the ceilings below are what that design measures plus
~15% for interpreter differences (3.12 inlines comprehensions, which only
lowers the count).  A change that pushes a run over its ceiling has put a
call back on every packet: find it with ``python -m cProfile -s ncalls``.

Only ``call`` events are counted (C functions report ``c_call``), over the
whole run including set-up, unchecked: ``REPRO_SIMCHECK=1`` adds audits
that are not the path's.
"""

import sys

import pytest

from repro import telemetry
from repro.experiments import FIG2C_LONG_RUNNING, TABLE3_REMY, run_cubic_fixed
from repro.runner import flow_records
from repro.simnet import MSS_BYTES
from repro.transport import CubicParams

PARAMS = CubicParams(4, 64, 0.7)


def frames_per_segment(preset, duration_s):
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_cubic_fixed(
            PARAMS, preset, seed=1, duration_s=duration_s, checked=False
        )
    finally:
        sys.setprofile(previous)
    flows = flow_records(result.per_sender_stats)
    segments = sum(flow.bytes_goodput for flow in flows) / MSS_BYTES
    assert segments > 1000  # a run too small to amortize its set-up proves nothing
    return frames / segments


@pytest.mark.parametrize(
    "preset, duration_s, ceiling",
    [
        # Measured when the ceilings were set: 56.4 and 74.0 (112.1 and
        # 144.9 before the path was flattened).
        pytest.param(TABLE3_REMY, 6.0, 70.0, id="table3"),
        pytest.param(FIG2C_LONG_RUNNING, 4.0, 90.0, id="fig2c"),
    ],
)
def test_frames_per_goodput_segment(preset, duration_s, ceiling):
    assert not telemetry.session().enabled  # observers are not the path's either
    measured = frames_per_segment(preset, duration_s)
    assert measured <= ceiling, (
        f"{measured:.1f} Python frames per goodput segment, ceiling {ceiling:.0f}"
    )
