"""Records stored with every RTT sample are still served, and equal fresh ones.

A ``FlowRecord`` holds its RTT samples as a count and a digest.  Caches
and journals written before that hold each flow's ``rtt_samples`` list
instead; ``FlowRecord.from_dict`` pins such a list the same way, so the
record is served and compares ``identical_to`` a fresh run of its point.
A flow carrying both layouts, or neither, is damage.
"""

import json
import os

from repro.experiments.scenarios import run_cubic_fixed
from repro.runner.cache import DiskCache
from repro.runner.checkpoint import SweepJournal
from repro.runner.core import SweepPoint, SweepSpec, evaluate_point
from repro.runner.hashing import canonical_json, content_hash
from repro.runner.records import decode_record, encode_record

from .conftest import MINI_GRID, MINI_PRESET, flow_dict_with_samples

SPEC = SweepSpec(preset=MINI_PRESET)


def computed(index):
    """A fresh point and its payload with every flow's sample list."""
    point = SweepPoint(params=MINI_GRID[index], run_index=0, seed=index)
    fresh = evaluate_point(SPEC, point)
    run = run_cubic_fixed(point.params, MINI_PRESET, seed=point.seed)
    payload = fresh.to_dict()
    payload["flows"] = [
        flow_dict_with_samples(stats)
        for sender in run.per_sender_stats
        for stats in sender
    ]
    assert sum(len(flow["rtt_samples"]) for flow in payload["flows"]) > 0
    return fresh, payload


def stored(payload):
    """``payload`` in the one codec's envelope, checksum and all."""
    return (
        '{"checksum":"' + content_hash(payload) + '","result":'
        + canonical_json(payload) + "}"
    )


def json_dumps_layout(payload):
    """``payload`` as records were stored before the one codec."""
    return json.dumps({"checksum": content_hash(payload), "result": payload})


class TestSampleListLayout:
    def test_decodes_identical_to_a_fresh_run(self):
        fresh, payload = computed(0)
        for text in (stored(payload), json_dumps_layout(payload)):
            decoded = decode_record(text)
            assert decoded is not None
            assert decoded.identical_to(fresh)
            assert decoded == fresh

    def test_disk_cache_serves_it(self, tmp_path):
        fresh, payload = computed(0)
        cache = DiskCache(str(tmp_path))
        with open(os.path.join(str(tmp_path), f"{fresh.key}.json"), "w") as handle:
            handle.write(stored(payload))
        served = cache.get(fresh.key)
        assert served is not None and served.identical_to(fresh)
        assert cache.stats.hits == 1
        assert cache.stats.corrupt_evictions == 0

    def test_journal_mixing_both_layouts_loads_every_line(self, tmp_path):
        points = [computed(index) for index in range(3)]
        path = tmp_path / "journal.jsonl"
        path.write_text(
            stored(points[0][1]) + "\n"
            + encode_record(points[1][0]) + "\n"
            + json_dumps_layout(points[2][1]) + "\n"
        )
        journal = SweepJournal(str(path))
        restored = journal.load()
        assert journal.corrupt_dropped == 0
        assert len(restored) == 3
        for fresh, _ in points:
            assert restored[fresh.key].identical_to(fresh)
        # Served again after the load, whatever it rewrote.
        again = SweepJournal(str(path)).load()
        assert [again[fresh.key] for fresh, _ in points] == [p for p, _ in points]

    def test_new_layout_is_a_count_and_a_digest(self):
        fresh, payload = computed(0)
        for new, old in zip(fresh.to_dict()["flows"], payload["flows"]):
            assert "rtt_samples" not in new
            assert new["rtt_count"] == len(old["rtt_samples"])
            assert len(new["rtt_digest"]) == 64


class TestLayoutDamage:
    def _damaged(self, edit):
        fresh, payload = computed(0)
        flows = fresh.to_dict()["flows"]
        edit(flows[0], payload["flows"][0])
        # A valid checksum: only the flow's layout is wrong.
        return fresh, stored({**fresh.to_dict(), "flows": flows})

    def _neither(self, new, old):
        del new["rtt_count"], new["rtt_digest"]

    def _both(self, new, old):
        new["rtt_samples"] = old["rtt_samples"]

    def _count_only(self, new, old):
        del new["rtt_digest"]

    def test_neither_both_or_half_is_damage(self):
        for edit in (self._neither, self._both, self._count_only):
            _, text = self._damaged(edit)
            assert decode_record(text) is None, edit.__name__

    def test_cache_evicts_it(self, tmp_path):
        fresh, text = self._damaged(self._both)
        cache = DiskCache(str(tmp_path))
        entry = os.path.join(str(tmp_path), f"{fresh.key}.json")
        with open(entry, "w") as handle:
            handle.write(text)
        assert cache.get(fresh.key) is None
        assert cache.stats.corrupt_evictions == 1
        assert not os.path.exists(entry)

    def test_journal_drops_it_and_keeps_the_rest(self, tmp_path):
        fresh, text = self._damaged(self._neither)
        other, _ = computed(1)
        path = tmp_path / "journal.jsonl"
        path.write_text(text + "\n" + encode_record(other) + "\n")
        journal = SweepJournal(str(path))
        restored = journal.load()
        assert journal.corrupt_dropped == 1
        assert list(restored) == [other.key]
