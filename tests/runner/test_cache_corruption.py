"""DiskCache corruption handling: any damage is a miss that self-heals."""

import json
import os
import shutil

import pytest

from repro.runner.cache import DiskCache
from repro.runner.hashing import content_hash

from .conftest import cache_entries


def entry_path(cache, key):
    return os.path.join(cache.directory, f"{key}.json")


def put_one(tmp_path, make_result):
    cache = DiskCache(str(tmp_path / "cache"))
    result = make_result()
    cache.put(result)
    return cache, result


class TestEnvelopeFormat:
    def test_entry_embeds_checksum_over_payload(self, tmp_path, make_result):
        cache, result = put_one(tmp_path, make_result)
        with open(entry_path(cache, result.key), encoding="utf-8") as handle:
            envelope = json.load(handle)
        assert set(envelope) == {"checksum", "result"}
        assert envelope["checksum"] == content_hash(envelope["result"])

    def test_put_leaves_no_temp_files(self, tmp_path, make_result):
        cache, _ = put_one(tmp_path, make_result)
        leftovers = [
            name for name in os.listdir(cache.directory)
            if not name.endswith(".json") or name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_len_ignores_a_killed_writers_temp_file(self, tmp_path, make_result):
        cache, _ = put_one(tmp_path, make_result)
        cache.put(make_result(key="b" * 64))
        # A writer killed between creating its temp file and the rename
        # leaves the temp behind; it is not an entry.
        with open(os.path.join(cache.directory, ".tmp-abc.json"), "w") as handle:
            handle.write('{"checksum":')
        assert cache_entries(cache.directory) == 2

    def test_temp_files_are_not_named_like_entries(self, tmp_path, make_result, monkeypatch):
        renamed = []
        replace = os.replace

        def record(src, dst):
            renamed.append(os.path.basename(src))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        cache, _ = put_one(tmp_path, make_result)
        (temp,) = renamed
        assert not temp.endswith(".json")

    def test_round_trip_across_instances(self, tmp_path, make_result):
        cache, result = put_one(tmp_path, make_result)
        reopened = DiskCache(cache.directory)
        assert reopened.get(result.key) == result


class TestCorruptEntries:
    def corrupt(self, cache, result, content):
        with open(entry_path(cache, result.key), "w", encoding="utf-8") as handle:
            handle.write(content)

    def assert_evicted(self, cache, result):
        # Damage is a miss, the poisoned file is deleted, and the very
        # next get is a plain (cheap) miss rather than a re-parse.
        assert cache.get(result.key) is None
        assert not os.path.exists(entry_path(cache, result.key))
        assert cache.get(result.key) is None

    def test_truncated_file(self, tmp_path, make_result):
        cache, result = put_one(tmp_path, make_result)
        path = entry_path(cache, result.key)
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        self.corrupt(cache, result, content[: len(content) // 2])
        self.assert_evicted(cache, result)

    def test_garbage_json(self, tmp_path, make_result):
        cache, result = put_one(tmp_path, make_result)
        self.corrupt(cache, result, "{not json")
        self.assert_evicted(cache, result)

    def test_checksum_tamper(self, tmp_path, make_result):
        cache, result = put_one(tmp_path, make_result)
        path = entry_path(cache, result.key)
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["result"]["seed"] = envelope["result"]["seed"] + 1
        self.corrupt(cache, result, json.dumps(envelope))
        self.assert_evicted(cache, result)

    def test_legacy_unenveloped_entry(self, tmp_path, make_result):
        # A pre-checksum cache entry (bare payload, no envelope) must be
        # evicted, not trusted.
        cache, result = put_one(tmp_path, make_result)
        self.corrupt(cache, result, json.dumps(result.to_dict()))
        self.assert_evicted(cache, result)

    def test_entry_filed_under_another_key(self, tmp_path, make_result):
        # An intact, correctly checksummed record of point a copied to
        # point b's file name must not be served as b's result.
        cache, other = put_one(tmp_path, make_result)
        result = make_result(key="b" * 64, seed=other.seed + 1)
        cache.put(result)
        shutil.copyfile(entry_path(cache, other.key), entry_path(cache, result.key))
        self.assert_evicted(cache, result)
        assert cache.get(other.key) == other

    def test_valid_entry_untouched_by_eviction_paths(self, tmp_path, make_result):
        cache, result = put_one(tmp_path, make_result)
        assert cache.get(result.key) == result
        assert os.path.exists(entry_path(cache, result.key))


class TestFilesystemFailures:
    def test_an_entry_that_is_a_directory_is_a_miss_left_in_place(self, tmp_path):
        # open() and unlink() both fail on it; neither error escapes.
        cache = DiskCache(str(tmp_path))
        os.mkdir(tmp_path / ("a" * 64 + ".json"))
        assert cache.get("a" * 64) is None
        assert (tmp_path / ("a" * 64 + ".json")).is_dir()

    def test_a_failed_rename_removes_its_temp_file_and_raises(
        self, tmp_path, make_result, monkeypatch
    ):
        def replace_fails(src, dst):
            os.unlink(src)  # even a temp file already gone is no second error
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace_fails)
        with pytest.raises(OSError, match="disk full"):
            DiskCache(str(tmp_path)).put(make_result())
        assert os.listdir(tmp_path) == []
