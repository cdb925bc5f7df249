"""Resumable-sweep checkpoints: an append-only, checksummed journal.

A long parameter sweep that dies — worker crash cascade, SIGKILL, power
loss — should never forfeit the points it already computed.  The runner
therefore journals every completed :class:`~repro.runner.records.PointResult`
to a JSONL file named by the sweep's *content key* (a hash over the
engine signature, scenario, grid, run count, and base seed), and
``--resume`` replays the journal before scheduling any work.

Robustness model:

- **Identification**: the journal file name is the sweep key, so a
  resume can never replay results from a different grid, scenario,
  duration, seed convention, or engine version.  Individual records are
  additionally matched by their own point key, which covers the same
  inputs per point.
- **Torn writes**: each record is one line of
  :func:`~repro.runner.records.encode_record`, ``{"checksum", "result"}``
  with a SHA-256 over the stored canonical JSON of the result.  A record
  is only trusted if it checksums, parses, and round-trips; a torn tail
  line (the one being written when the process died) or any corrupted
  line is skipped, counted, and healed away.
- **Healing**: loading rewrites the journal *atomically* (temp file +
  ``os.replace``) whenever corrupt lines were found, so damage never
  accumulates and the post-load file is exactly the trusted records.
- **Durability**: appends flush and ``fsync`` per record, so a completed
  point survives even an immediate hard kill; the sweep runner always
  journals this way.  ``SweepJournal(path, fsync=False)`` keeps only
  ordinary-crash durability.
"""

from __future__ import annotations

import os
import tempfile
from typing import TYPE_CHECKING, Dict, List, Sequence

from .hashing import ENGINE_SIGNATURE, content_hash
from .records import PointResult, decode_record, encode_record

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from ..transport.cubic import CubicParams
    from .core import SweepSpec


class CheckpointError(Exception):
    """Raised for invalid uses of the checkpoint layer."""


def sweep_key(
    spec: "SweepSpec",
    grid: Sequence["CubicParams"],
    n_runs: int,
    base_seed: int,
) -> str:
    """Content key identifying one exact sweep (grid order included)."""
    return content_hash(
        {
            "engine": ENGINE_SIGNATURE,
            "topology": spec.preset.config,
            "workload": spec.preset.workload,
            "duration_s": float(spec.effective_duration_s),
            "grid": list(grid),
            "n_runs": int(n_runs),
            "base_seed": int(base_seed),
        }
    )


class SweepJournal:
    """The journal of completed points for one sweep key."""

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self._handle = None

    @classmethod
    def for_sweep(
        cls,
        directory: str,
        spec: "SweepSpec",
        grid: Sequence["CubicParams"],
        n_runs: int,
        base_seed: int,
    ) -> "SweepJournal":
        """The journal for this exact sweep under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        key = sweep_key(spec, grid, n_runs, base_seed)
        return cls(os.path.join(directory, f"{key}.jsonl"))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, heal: bool = True) -> Dict[str, PointResult]:
        """Trusted records by point key; damaged lines are dropped.

        With ``heal`` (the default) a journal containing any damaged
        line is atomically rewritten to just the trusted records, so the
        file on disk is clean after every load.
        """
        if self._handle is not None:
            raise CheckpointError("cannot load an open journal")
        restored: Dict[str, PointResult] = {}
        ordered: List[PointResult] = []
        corrupt = 0
        try:
            # A byte that is not UTF-8 is damage to its line, not an error.
            with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.rstrip()
                    if not line:
                        continue
                    record = decode_record(line)
                    if record is None:
                        corrupt += 1
                    elif record.key not in restored:
                        restored[record.key] = record
                        ordered.append(record)
        except FileNotFoundError:
            return {}
        if corrupt and heal:
            self._rewrite(ordered)
        return restored

    def _rewrite(self, records: List[PointResult]) -> None:
        """Atomic temp-file + rename replacement with trusted records."""
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".journal-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(encode_record(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            raise

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def open(self) -> "SweepJournal":
        """Open for appending (records survive from prior runs)."""
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def reset(self) -> "SweepJournal":
        """Truncate: a non-resumed sweep starts a fresh journal."""
        self.close()
        self._handle = open(self.path, "w", encoding="utf-8")
        return self

    def append(self, result: PointResult) -> None:
        """Durably journal one completed point."""
        if self._handle is None:
            self.open()
        self._handle.write(encode_record(result) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "CheckpointError",
    "SweepJournal",
    "sweep_key",
]
