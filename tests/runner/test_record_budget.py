"""The sweep runner's stored records as a count: Python calls per record
for ``DiskCache.put`` / ``get`` and ``SweepJournal.append`` / ``load``.

A Table-2 grid is run many times per configuration, resumed across
interruptions and re-rendered from the same cached points, so every
resume reads the whole journal and every re-render the whole cache.  A
wall-time bound cannot be held on a shared runner; the number of Python
function calls a record costs is a function of the code and the seed.

A record is encoded once (one canonical JSON body, one SHA-256 over it)
and a read hashes the stored body as it stands before parsing it once,
so a record costs about one call per flow plus a fixed few for the file
and the ``json`` module, whatever its number of RTT samples.  When every
write walked the payload through ``hashing.plain`` and the pure-Python
streaming encoder, and every read re-encoded the parsed payload to check
it, this grid cost 22,471 calls per ``put``, 2,365 per ``append``, 4,284
per ``get`` and 4,282 per ``load``.  The ceilings are about 1.5x what the
one codec measures (59, 36, 72, 70).  A change that pushes a record over
its ceiling has put a walk over the samples back on the path: find it
with ``python -m cProfile -s ncalls``.

Every ``call`` event is counted, in any module, over all 12 records.

A record's size is held too: a flow's RTT samples, one per ACK, are
stored as their count and digest, so a point's stored bytes per flow do
not grow with its duration.  When every sample was stored, a 60-s Fig 2b
point was a 1,409 KB record.
"""

import sys

import pytest

from repro.experiments import FIG2C_LONG_RUNNING, TABLE3_REMY
from repro.runner import DiskCache, NullCache, SweepJournal, SweepRunner
from repro.runner.core import SweepPoint, SweepSpec, evaluate_point
from repro.runner.records import encode_record
from repro.transport.cubic import CubicParams, cubic_sweep_grid

#: perf's ``sweep_cold`` grid: ssthresh 2/16/128 x windowInit 2/64 x beta 0.2/0.8.
GRID = list(cubic_sweep_grid([2.0, 16.0, 128.0], [2.0, 64.0], [0.2, 0.8]))


def calls_per_record(action, n):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls / n


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    runner = SweepRunner(TABLE3_REMY, duration_s=4.0, n_workers=1, cache=NullCache())
    points = runner.run(GRID, base_seed=1, parallel=False).points
    assert len(points) == len(GRID)
    assert sum(f.rtt_count for p in points for f in p.flows) > 10_000

    directory = tmp_path_factory.mktemp("records")
    cache = DiskCache(str(directory / "cache"))
    journal = SweepJournal(str(directory / "journal.jsonl"))
    reader = SweepJournal(journal.path)
    served = []
    n = len(points)

    def put():
        for point in points:
            cache.put(point)

    def get():
        served.extend(cache.get(point.key) for point in points)

    def append():
        for point in points:
            journal.append(point)

    counted = {
        "put": calls_per_record(put, n),
        "get": calls_per_record(get, n),
        "append": calls_per_record(append, n),
    }
    journal.close()
    restored = {}
    counted["load"] = calls_per_record(lambda: restored.update(reader.load()), n)

    assert served == points
    assert [restored[p.key] for p in points] == points
    assert cache.stats.corrupt_evictions == reader.corrupt_dropped == 0
    return counted


@pytest.mark.parametrize(
    "operation, ceiling",
    [
        pytest.param("put", 90.0, id="put"),
        pytest.param("get", 105.0, id="get"),
        pytest.param("append", 55.0, id="append"),
        pytest.param("load", 105.0, id="load"),
    ],
)
def test_python_calls_per_record(counts, operation, ceiling):
    assert counts[operation] <= ceiling, (
        f"{counts[operation]:.1f} Python calls per record in {operation}, "
        f"ceiling {ceiling}"
    )


def test_stored_bytes_per_flow_do_not_grow_with_acks():
    # 40 persistent flows: each takes over 4x the ACKs in 8 sim-s as in
    # 2.  The one codec measures 329 and 335 bytes per flow.
    point = SweepPoint(params=CubicParams(2, 16, 0.2), run_index=0, seed=1)
    per_flow, samples = {}, {}
    for duration_s in (2.0, 8.0):
        spec = SweepSpec(preset=FIG2C_LONG_RUNNING, duration_s=duration_s)
        result = evaluate_point(spec, point)
        per_flow[duration_s] = len(encode_record(result).encode()) / len(result.flows)
        samples[duration_s] = sum(flow.rtt_count for flow in result.flows)
    assert samples[8.0] > 4 * samples[2.0]
    assert abs(per_flow[8.0] / per_flow[2.0] - 1.0) < 0.10, per_flow
    assert max(per_flow.values()) < 400, per_flow
