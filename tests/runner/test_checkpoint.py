"""Checkpoint journal: round trips, torn-tail healing, resume semantics."""

import json
import os

import pytest

from repro.runner import checkpoint
from repro.runner.cache import DiskCache, NullCache
from repro.runner.checkpoint import CheckpointError, SweepJournal, sweep_key
from repro.runner.core import SweepRunner, SweepSpec
from repro.runner.hashing import content_hash
from repro.runner.records import encode_record


def journal_at(tmp_path, name="journal.jsonl", **kwargs):
    return SweepJournal(str(tmp_path / name), **kwargs)


class TestJournalRoundTrip:
    def test_append_load_round_trip(self, tmp_path, make_result):
        journal = journal_at(tmp_path)
        records = [make_result(key=f"{i:064d}", seed=i) for i in range(3)]
        with journal:
            for record in records:
                journal.append(record)
        assert len((tmp_path / "journal.jsonl").read_text().splitlines()) == 3

        restored = journal_at(tmp_path).load()
        assert len(restored) == 3
        for record in records:
            assert restored[record.key] == record

    def test_missing_file_loads_empty(self, tmp_path):
        assert journal_at(tmp_path, "absent.jsonl").load() == {}

    def test_load_while_open_is_an_error(self, tmp_path):
        journal = journal_at(tmp_path).open()
        with pytest.raises(CheckpointError):
            journal.load()
        journal.close()

    def test_duplicate_keys_keep_first_record(self, tmp_path, make_result):
        journal = journal_at(tmp_path)
        with journal:
            journal.append(make_result(key="a" * 64, seed=1))
            journal.append(make_result(key="a" * 64, seed=2))
        restored = journal_at(tmp_path).load()
        assert len(restored) == 1
        assert restored["a" * 64].seed == 1

    def test_reset_truncates(self, tmp_path, make_result):
        journal = journal_at(tmp_path)
        with journal:
            journal.append(make_result())
        fresh = journal_at(tmp_path)
        fresh.reset()
        fresh.close()
        assert journal_at(tmp_path).load() == {}


class TestJournalCorruption:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    def good_line(self, make_result, key="b" * 64):
        return encode_record(make_result(key=key)) + "\n"

    def test_torn_tail_line_is_dropped(self, tmp_path, make_result):
        good = self.good_line(make_result)
        # A record half-written when the process was killed: no newline,
        # truncated mid-JSON.
        path = self.write_lines(tmp_path, [good, good.replace("b", "c")[: len(good) // 2]])
        restored = journal_at(tmp_path).load()
        assert len(restored) == 1
        assert path.read_text(encoding="utf-8") == good  # the torn line healed away

    def test_garbage_line_is_dropped(self, tmp_path, make_result):
        good = self.good_line(make_result)
        self.write_lines(tmp_path, ["{not json at all\n", good])
        restored = journal_at(tmp_path).load()
        assert len(restored) == 1

    def test_checksum_mismatch_is_dropped(self, tmp_path, make_result):
        good = self.good_line(make_result)
        envelope = json.loads(good)
        envelope["result"]["seed"] = envelope["result"]["seed"] + 1  # tamper
        path = self.write_lines(tmp_path, [json.dumps(envelope) + "\n", good])
        restored = journal_at(tmp_path).load()
        assert len(restored) == 1
        assert path.read_text(encoding="utf-8") == good

    def test_non_utf8_byte_damages_only_its_line(self, tmp_path, make_result):
        good = self.good_line(make_result).encode("utf-8")
        other = self.good_line(make_result, key="c" * 64).encode("utf-8")
        damaged = other[:40] + b"\xff" + other[41:]
        (tmp_path / "journal.jsonl").write_bytes(good + damaged)
        assert list(journal_at(tmp_path).load()) == ["b" * 64]
        assert (tmp_path / "journal.jsonl").read_bytes() == good

    def test_load_heals_file_atomically(self, tmp_path, make_result):
        good = self.good_line(make_result)
        path = self.write_lines(tmp_path, [good, "garbage\n"])
        journal_at(tmp_path).load()
        # After healing the file holds exactly the trusted records.
        healed = path.read_text(encoding="utf-8")
        assert healed == good
        assert list(journal_at(tmp_path).load()) == ["b" * 64]
        assert path.read_text(encoding="utf-8") == good

    def test_load_without_heal_leaves_file_alone(self, tmp_path, make_result):
        good = self.good_line(make_result)
        path = self.write_lines(tmp_path, [good, "garbage\n"])
        journal_at(tmp_path).load(heal=False)
        assert "garbage" in path.read_text(encoding="utf-8")


def parent_layout_line(result):
    """A journal line as written before the one codec: ``json.dumps`` defaults."""
    payload = result.to_dict()
    return json.dumps({"checksum": content_hash(payload), "result": payload}) + "\n"


class TestParentLayout:
    def test_parent_layout_lines_are_damage_and_heal(self, tmp_path, make_result):
        # A sweep journaled in the old layout, then resumed and appended
        # to in the new one: the old lines are dropped, the file healed.
        records = [make_result(key=f"{i:064d}", seed=i) for i in range(4)]
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(map(parent_layout_line, records[:2])), encoding="utf-8")
        with journal_at(tmp_path).open() as journal:
            for record in records[2:]:
                journal.append(record)
        reader = journal_at(tmp_path)
        assert reader.load() == {record.key: record for record in records[2:]}
        assert path.read_text(encoding="utf-8") == "".join(
            encode_record(record) + "\n" for record in records[2:]
        )


class TestSweepKey:
    def test_key_is_stable_for_identical_inputs(self, mini_preset, mini_grid):
        spec = SweepSpec(preset=mini_preset)
        assert sweep_key(spec, mini_grid, 2, 0) == sweep_key(spec, mini_grid, 2, 0)

    def test_key_covers_every_identifying_input(self, mini_preset, mini_grid, monkeypatch):
        spec = SweepSpec(preset=mini_preset)
        base = sweep_key(spec, mini_grid, 2, 0)
        assert sweep_key(spec, mini_grid[:2], 2, 0) != base  # grid
        assert sweep_key(spec, list(reversed(mini_grid)), 2, 0) != base  # order
        assert sweep_key(spec, mini_grid, 3, 0) != base  # n_runs
        assert sweep_key(spec, mini_grid, 2, 7) != base  # base_seed
        shorter = SweepSpec(preset=mini_preset, duration_s=1.0)
        assert sweep_key(shorter, mini_grid, 2, 0) != base  # duration
        monkeypatch.setattr(checkpoint, "ENGINE_SIGNATURE", "other-engine")
        assert sweep_key(spec, mini_grid, 2, 0) != base  # engine version


@pytest.mark.fault
class TestRunnerResume:
    def run_sweep(self, mini_preset, mini_grid, tmp_path, resume):
        runner = SweepRunner(
            mini_preset,
            n_workers=1,
            cache=NullCache(),
            checkpoint_dir=str(tmp_path / "ckpt"),
            resume=resume,
        )
        return runner.run(mini_grid, n_runs=1, base_seed=0, parallel=False)

    def test_full_resume_recomputes_nothing(self, mini_preset, mini_grid, tmp_path):
        first = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=False)
        assert first.checkpoint_reused == 0
        assert len(first.points) == len(mini_grid)

        second = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=True)
        assert second.checkpoint_reused == len(mini_grid)
        by_key = {point.key: point for point in first.points}
        for point in second.points:
            assert point.identical_to(by_key[point.key])

    def test_checkpointing_does_not_perturb_points(
        self, mini_preset, mini_grid, tmp_path
    ):
        journaled = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=False)
        bare = SweepRunner(mini_preset, n_workers=1, cache=NullCache()).run(
            mini_grid, n_runs=1, base_seed=0, parallel=False
        )
        assert journaled.complete and bare.complete
        assert len(journaled.points) == len(bare.points) == len(mini_grid)
        for a, b in zip(bare.points, journaled.points):
            assert a.identical_to(b)

    def test_partial_resume_recomputes_only_missing(
        self, mini_preset, mini_grid, tmp_path
    ):
        first = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=False)

        # Simulate a sweep killed partway: keep only the first 2 journal
        # records (appends are newline-terminated, so complete lines are
        # complete records).
        ckpt_dir = tmp_path / "ckpt"
        (journal_path,) = list(ckpt_dir.glob("*.jsonl"))
        lines = journal_path.read_text(encoding="utf-8").splitlines(keepends=True)
        journal_path.write_text("".join(lines[:2]), encoding="utf-8")

        second = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=True)
        assert second.checkpoint_reused == 2
        assert len(second.points) == len(mini_grid)
        by_key = {point.key: point for point in first.points}
        for point in second.points:
            assert point.identical_to(by_key[point.key])

    def test_without_resume_journal_is_truncated(
        self, mini_preset, mini_grid, tmp_path
    ):
        self.run_sweep(mini_preset, mini_grid, tmp_path, resume=False)
        rerun = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=False)
        assert rerun.checkpoint_reused == 0

    def test_changed_grid_uses_a_fresh_journal(
        self, mini_preset, mini_grid, tmp_path
    ):
        # The journal file is named by the sweep content key, so resuming
        # a *different* sweep (here: a widened grid) can never replay
        # another sweep's records.
        self.run_sweep(mini_preset, mini_grid[:2], tmp_path, resume=False)
        widened = self.run_sweep(mini_preset, mini_grid, tmp_path, resume=True)
        assert widened.checkpoint_reused == 0
        assert len(list((tmp_path / "ckpt").glob("*.jsonl"))) == 2

    def test_cache_hits_are_journaled(self, mini_preset, mini_grid, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "ckpt")

        def run(resume):
            runner = SweepRunner(
                mini_preset,
                n_workers=1,
                cache=cache,
                checkpoint_dir=ckpt,
                resume=resume,
            )
            return runner.run(mini_grid, n_runs=1, base_seed=0, parallel=False)

        run(resume=False)
        # Second run: everything is a cache hit — but a resume must not
        # depend on the cache surviving, so hits land in the journal too.
        warm = run(resume=False)
        assert warm.cache_hits == len(mini_grid)

        (journal_path,) = list((tmp_path / "ckpt").glob("*.jsonl"))
        journal = SweepJournal(str(journal_path))
        assert len(journal.load()) == len(mini_grid)


class TestJournalFilesystem:
    def test_blank_lines_are_skipped(self, tmp_path, make_result):
        good = encode_record(make_result(key="b" * 64)) + "\n"
        (tmp_path / "journal.jsonl").write_text("\n" + good + "\n", encoding="utf-8")
        assert list(journal_at(tmp_path).load()) == ["b" * 64]

    def test_a_failed_heal_removes_its_temp_file_and_raises(
        self, tmp_path, make_result, monkeypatch
    ):
        good = encode_record(make_result(key="b" * 64)) + "\n"
        (tmp_path / "journal.jsonl").write_text("{torn\n" + good, encoding="utf-8")

        def replace_fails(src, dst):
            os.unlink(src)
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace_fails)
        with pytest.raises(OSError, match="disk full"):
            journal_at(tmp_path).load()
        assert sorted(os.listdir(tmp_path)) == ["journal.jsonl"]
