"""Per-point result caches for the sweep runner.

A cache maps a content hash (see :mod:`repro.runner.hashing`) to a
:class:`~repro.runner.records.PointResult`.  Because the key covers the
engine signature along with params, topology, workload, duration, and
seed, a hit is always safe to reuse — a re-run of an already-swept grid
costs nothing, and widening a sweep only pays for the new points.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Optional

from .records import PointResult, decode_record, encode_record


class CacheStats:
    """Hit/miss counters shared by all cache backends."""

    __slots__ = ("hits", "misses", "writes", "corrupt_evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_evictions = 0


class MemoryCache:
    """In-process dictionary cache (the default)."""

    def __init__(self) -> None:
        self._store: Dict[str, PointResult] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> Optional[PointResult]:
        result = self._store.get(key)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def put(self, result: PointResult) -> None:
        self._store[result.key] = result
        self.stats.writes += 1


class DiskCache:
    """One checksummed JSON file per point under ``directory``.

    Corruption-proof by construction: writes are atomic (temp file +
    ``os.replace``) so a crashed or interrupted sweep never leaves a
    torn entry behind, and every entry is one
    :func:`~repro.runner.records.encode_record` text, whose SHA-256 covers
    the stored payload.  ``get`` treats *any* damage — unreadable file,
    invalid JSON, checksum mismatch, schema drift, a record whose own key
    is not the one asked for — as a miss, deletes the poisoned file so it
    cannot fail again, and lets the sweep recompute the point instead of
    aborting mid-run.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def __len__(self) -> int:
        # Entries are ``<key>.json``.  Dot-files are the temps of killed
        # writers, which older versions named ``.tmp-*.json``.
        return sum(
            1 for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".")
        )

    def _evict_corrupt(self, path: str) -> None:
        self.stats.corrupt_evictions += 1
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - deletion is best-effort
            pass

    def get(self, key: str) -> Optional[PointResult]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                result = decode_record(handle.read())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            result = None
        if result is None or result.key != key:
            # Truncated write from a killed run, bit rot, stale schema, a
            # record filed under another point's name: delete-and-miss so
            # one bad file can't poison every sweep.
            self._evict_corrupt(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, result: PointResult) -> None:
        text = encode_record(result)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self._path(result.key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            raise
        self.stats.writes += 1


class NullCache:
    """A cache that remembers nothing (for benchmarking cold paths)."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    def __len__(self) -> int:
        return 0

    def get(self, key: str) -> Optional[PointResult]:
        self.stats.misses += 1
        return None

    def put(self, result: PointResult) -> None:
        pass
