"""A record stored in an older layout is damage: recomputed, never served.

Records hold each flow's RTT samples as a count and a digest, inside the
one codec's envelope.  Caches and journals written before either carry
``rtt_samples`` lists, or the ``json.dumps`` envelope.  The disk cache
evicts such a record, the journal drops the line and heals, and the
point is recomputed ``identical_to`` a cold run.
"""

import json

from repro.experiments.scenarios import run_cubic_fixed
from repro.runner.cache import DiskCache
from repro.runner.checkpoint import SweepJournal
from repro.runner.core import SweepPoint, SweepRunner, SweepSpec, evaluate_point
from repro.runner.hashing import canonical_json, content_hash
from repro.runner.records import encode_record

from .conftest import MINI_GRID, MINI_PRESET, flow_dict_with_samples


def test_legacy_record_is_recomputed_identical_to_a_cold_run(tmp_path):
    params = MINI_GRID[0]
    cold = evaluate_point(SweepSpec(preset=MINI_PRESET), SweepPoint(params, 0, 0))
    # The cache holds the point with every flow's sample list, under a
    # valid checksum; the journal holds it in the json.dumps envelope.
    with_samples = cold.to_dict()
    with_samples["flows"] = [
        flow_dict_with_samples(stats)
        for sender in run_cubic_fixed(params, MINI_PRESET, seed=0).per_sender_stats
        for stats in sender
    ]
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / f"{cold.key}.json").write_text(
        '{"checksum":"' + content_hash(with_samples) + '","result":'
        + canonical_json(with_samples) + "}"
    )
    runner = SweepRunner(
        MINI_PRESET, n_workers=1, cache=DiskCache(str(tmp_path / "cache")),
        checkpoint_dir=str(tmp_path / "journal"), resume=True,
    )
    journal = SweepJournal.for_sweep(str(tmp_path / "journal"), runner.spec, [params], 1, 0)
    with open(journal.path, "w") as handle:
        handle.write(json.dumps({"checksum": content_hash(cold.to_dict()),
                                 "result": cold.to_dict()}) + "\n")

    outcome = runner.run([params], n_runs=1, base_seed=0)

    (result,) = outcome.points
    assert result.identical_to(cold)
    assert (outcome.cache_hits, outcome.checkpoint_reused) == (0, 0)
    # The damaged cache entry was evicted and the recomputed point put in its place.
    with open(tmp_path / "cache" / f"{result.key}.json") as handle:
        assert handle.read() == encode_record(result)
    with open(journal.path) as handle:
        assert handle.read() == encode_record(result) + "\n"
