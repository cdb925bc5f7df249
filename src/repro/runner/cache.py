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
from typing import Optional

from .records import PointResult, decode_record, encode_record


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

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _evict_corrupt(self, path: str) -> None:
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
            return None
        except (OSError, ValueError):
            result = None
        if result is None or result.key != key:
            # Truncated write from a killed run, bit rot, stale schema, a
            # record filed under another point's name: delete-and-miss so
            # one bad file can't poison every sweep.
            self._evict_corrupt(path)
            return None
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


class NullCache:
    """A cache that remembers nothing (the runner's default)."""

    def get(self, key: str) -> Optional[PointResult]:
        return None

    def put(self, result: PointResult) -> None:
        pass
