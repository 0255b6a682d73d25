"""Atomic, crash-safe persistence for durable pipeline runs.

Everything a durable run writes goes through the write-temp → fsync →
rename discipline in :func:`atomic_write_bytes`: a reader can observe
the old file or the new file, never a torn one.  What survives a kill
at *any* instant is therefore always one of three valid states —

- **manifest** (``MANIFEST.json``): the run's identity.  A version and
  a CRC-checksummed fingerprint of everything that must match for old
  checkpoints to be reusable (dataset shape, mode flags, shard count).
  Rewritten atomically once per attempt with a bumped attempt counter.
- **journal** (``journal.jsonl``): append-only completion log, one
  self-checksummed line per finished ``(day, shard)`` unit, tagged with
  the attempt that produced it.  A torn tail line (the crash case) is
  detected by its CRC and everything from it on is discarded — the unit
  simply re-executes, which is safe because units are pure.
- **units** (``units/day_DDD.shard_SSS.ckpt``): the serialized columnar
  blocks themselves (:mod:`repro.runtime.serialize`), each internally
  CRC-framed.

A unit counts as complete only when *both* its journal line and its
block validate; either one failing integrity checks costs exactly one
unit of recomputation, never a wrong result.

All raw file operations route through :mod:`repro.runtime.fsio` (lint
rule ``FS001``), which consults the ambient filesystem fault injector
and owns the failure hygiene: a failed staging write or publish rename
removes its partial/staged file before the ``OSError`` propagates, so
the store never strands torn ``*.tmp`` files, and a failed journal
append triggers :meth:`CheckpointStore._repair_journal` — the on-disk
journal is rewritten from validated in-memory entries so a retry never
appends onto a torn tail.
"""

from __future__ import annotations

import contextlib
import json
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Tuple, Union

from repro.runtime import fsio
from repro.runtime.serialize import (
    CheckpointCorruption,
    CheckpointError,
    StaleManifestError,
)

PathLike = Union[str, Path]

MANIFEST_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.jsonl"
UNITS_DIRNAME = "units"
_TMP_SUFFIX = ".tmp"

#: Hook invoked with the destination path just before the atomic rename —
#: the seam :class:`repro.faults.crash.KillSwitch` uses to model a crash
#: *during* checkpoint publication.
BeforeReplace = Optional[Callable[[Path], None]]

#: Kept as the module's name for directory fsync (tests and callers
#: predating the fsio seam import it from here).
_fsync_dir = fsio.fsync_dir


class StorageAbort(CheckpointError):
    """A unit could not be persisted within the retry budget (strict mode).

    Raised by :func:`repro.runtime.run.run_durable_pipeline` after the
    storage retry policy is exhausted on a write/rename/fsync fault.
    The store is left consistent (journal repaired, no torn files), so
    the run is resumable once the underlying condition clears.
    """

    def __init__(self, day: int, shard: int, attempts: int, last_error: Any):
        super().__init__(
            f"unit (day={day}, shard={shard}) could not be persisted after "
            f"{attempts} attempt(s): {last_error}; the store is consistent "
            "and the run can be resumed"
        )
        self.day = day
        self.shard = shard
        self.attempts = attempts
        self.last_error = last_error


def atomic_write_bytes(
    path: PathLike, data: bytes, before_replace: BeforeReplace = None
) -> Path:
    """Write ``data`` to ``path`` via write-temp → fsync → rename.

    A failure at any step (including the rename) removes the staged
    temp file before propagating, so no ``*.tmp`` outlives the call.
    """
    target = Path(path)
    tmp = target.with_name(target.name + _TMP_SUFFIX)
    fsio.write_file_bytes(tmp, data)
    if before_replace is not None:
        before_replace(target)
    fsio.replace_file(tmp, target)
    fsio.fsync_dir(target.parent)
    return target


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> Path:
    """Atomic twin of ``Path.write_text`` for durable artifacts."""
    return atomic_write_bytes(path, text.encode(encoding))


def _payload_crc(payload: Any) -> int:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def load_manifest(path: PathLike) -> Dict[str, Any]:
    """Read and validate a manifest envelope, returning its payload.

    Shared by :class:`CheckpointStore` resume and the scrubber
    (:mod:`repro.runtime.scrub`), which must read a store's identity
    without instantiating the store (no attempt bump, no fingerprint to
    compare against).
    """
    text = fsio.read_file_bytes(path).decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruption(f"unreadable manifest: {exc}") from exc
    if not isinstance(doc, dict) or "payload" not in doc or "crc32" not in doc:
        raise CheckpointCorruption("manifest missing payload/crc32 envelope")
    payload = doc["payload"]
    if _payload_crc(payload) != doc["crc32"]:
        raise CheckpointCorruption("manifest checksum mismatch")
    if doc.get("version") != MANIFEST_VERSION:
        raise StaleManifestError(
            f"manifest version {doc.get('version')} != supported "
            f"{MANIFEST_VERSION}"
        )
    if not isinstance(payload, dict):
        raise CheckpointCorruption("manifest payload must be an object")
    return payload


def parse_journal_lines(
    lines: List[str],
) -> Tuple[List[Dict[str, int]], int]:
    """Validate journal lines: (valid-prefix entries, torn-line count).

    The journal is append-only, so the first line failing its CRC (or
    failing to parse at all) marks a torn tail: it and everything after
    it are discarded, and the count of discarded lines is returned so
    the discard is observable.
    """
    entries: List[Dict[str, int]] = []
    n_torn = 0
    for index, line in enumerate(lines):
        try:
            doc = json.loads(line)
            crc = doc.pop("crc")
        except (json.JSONDecodeError, KeyError, AttributeError):
            n_torn = len(lines) - index
            break
        if crc != _payload_crc(doc):
            n_torn = len(lines) - index
            break
        entries.append(
            {
                "day": int(doc["day"]),
                "shard": int(doc["shard"]),
                "attempt": int(doc["attempt"]),
            }
        )
    return entries, n_torn


class CheckpointStore:
    """One durable run's on-disk state: manifest + journal + unit blocks.

    ``resume=False`` (the default) demands a directory with no prior
    run; pointing it at one raises :class:`CheckpointError` rather than
    silently clobbering checkpoints.  ``resume=True`` validates the
    manifest (version, fingerprint) against this run, adopts the
    recorded ``n_shards`` — the unit partitioning is fixed for the
    run's lifetime so resume works at any worker count — and bumps the
    attempt counter.  Journal lines carry the attempt that produced
    them, so tests (and operators) can see exactly which units each
    attempt executed.
    """

    def __init__(
        self,
        directory: PathLike,
        fingerprint: Dict[str, Any],
        n_shards: int,
        resume: bool = False,
        before_replace: BeforeReplace = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.directory = Path(directory)
        self.before_replace = before_replace
        self.fingerprint = fingerprint
        self.units_dir = self.directory / UNITS_DIRNAME
        self.units_dir.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / MANIFEST_NAME
        self._journal_path = self.directory / JOURNAL_NAME

        if self._manifest_path.exists():
            if not resume:
                raise CheckpointError(
                    f"{self.directory} already holds a run manifest; "
                    "pass resume=True to continue it"
                )
            payload = self._read_manifest()
            self._validate_manifest(payload)
            self.n_shards = int(payload["n_shards"])
            self.attempt = int(payload["attempt"]) + 1
        else:
            self.n_shards = n_shards
            self.attempt = 0
        #: Stray staging files swept on open — observable so resume
        #: tests (and the scrubber) can assert nothing was stranded.
        self.n_stale_tmp_removed = self._clean_temp_files()
        self._write_manifest()
        self._completed: Dict[Tuple[int, int], int] = {}
        self._entries: List[Dict[str, int]] = []
        #: Journal lines discarded as a torn tail on load (the crash
        #: case): the units they named simply re-execute, but the
        #: discard must be observable so runs can report it as a
        #: ``TORN_CHECKPOINT`` incident instead of recovering silently.
        self.n_torn_journal_lines = 0
        self._load_journal()
        self._journal: IO[str] = fsio.open_append(self._journal_path)

    # -- manifest ------------------------------------------------------------

    def _read_manifest(self) -> Dict[str, Any]:
        return load_manifest(self._manifest_path)

    def _validate_manifest(self, payload: Dict[str, Any]) -> None:
        recorded = payload.get("fingerprint", {})
        if _payload_crc(recorded) != _payload_crc(self.fingerprint):
            differing = sorted(
                key
                for key in set(recorded) | set(self.fingerprint)
                if recorded.get(key) != self.fingerprint.get(key)
            )
            raise StaleManifestError(
                "checkpoint fingerprint does not match this run "
                f"(differing keys: {differing})"
            )

    def _write_manifest(self) -> None:
        payload = {
            "fingerprint": self.fingerprint,
            "n_shards": self.n_shards,
            "attempt": self.attempt,
        }
        doc = {
            "version": MANIFEST_VERSION,
            "crc32": _payload_crc(payload),
            "payload": payload,
        }
        atomic_write_bytes(
            self._manifest_path,
            json.dumps(doc, sort_keys=True, indent=2).encode("utf-8"),
        )

    # -- journal -------------------------------------------------------------

    def _load_journal(self) -> None:
        if not self._journal_path.exists():
            return
        lines = [
            line.strip()
            for line in self._journal_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        self._entries, self.n_torn_journal_lines = parse_journal_lines(lines)
        for entry in self._entries:
            self._completed[(entry["day"], entry["shard"])] = entry["attempt"]
        if self.n_torn_journal_lines:
            # Physically remove the torn tail before the journal is
            # reopened for append: a torn line has no trailing newline,
            # so appending to it would glue the *next* completion record
            # onto the garbage and lose it too on the following load.
            body = "".join(
                json.dumps(dict(e, crc=_payload_crc(e)), sort_keys=True) + "\n"
                for e in self._entries
            )
            atomic_write_bytes(self._journal_path, body.encode("utf-8"))

    def mark_complete(self, day: int, shard: int) -> None:
        """Append one completed unit to the journal (flushed, not fsynced).

        Losing un-fsynced journal lines in a crash is safe — the units
        merely re-execute; call :meth:`sync` at day boundaries to bound
        that recomputation without paying an fsync per unit.
        """
        entry = {"day": day, "shard": shard, "attempt": self.attempt}
        doc = dict(entry)
        doc["crc"] = _payload_crc(entry)
        try:
            fsio.append_text(
                self._journal, self._journal_path, json.dumps(doc, sort_keys=True) + "\n"
            )
        except OSError:
            # The failed append may have left a torn tail; rewrite the
            # journal from validated in-memory entries so a retried
            # append never glues a good line onto garbage.
            self._repair_journal()
            raise
        self._entries.append(entry)
        self._completed[(day, shard)] = self.attempt

    def _repair_journal(self) -> None:
        """Rewrite the on-disk journal from in-memory entries, reopen it."""
        with contextlib.suppress(OSError):
            self._journal.close()
        try:
            body = "".join(
                json.dumps(dict(e, crc=_payload_crc(e)), sort_keys=True) + "\n"
                for e in self._entries
            )
            atomic_write_bytes(self._journal_path, body.encode("utf-8"))
        finally:
            self._journal = fsio.open_append(self._journal_path)

    def sync(self) -> None:
        """fsync the journal so completions survive power loss."""
        self._journal.flush()
        fsio.fsync_handle(self._journal, self._journal_path)

    def journal_entries(self) -> List[Dict[str, int]]:
        """Every valid journal entry, in append order."""
        return [dict(entry) for entry in self._entries]

    # -- units ---------------------------------------------------------------

    def unit_path(self, day: int, shard: int) -> Path:
        return self.units_dir / f"day_{day:03d}.shard_{shard:03d}.ckpt"

    def is_journaled(self, day: int, shard: int) -> bool:
        return (day, shard) in self._completed

    def save_unit(self, day: int, shard: int, data: bytes) -> Path:
        return atomic_write_bytes(
            self.unit_path(day, shard), data, before_replace=self.before_replace
        )

    def load_unit(self, day: int, shard: int) -> bytes:
        path = self.unit_path(day, shard)
        try:
            return fsio.read_file_bytes(path)
        except FileNotFoundError as exc:
            raise CheckpointCorruption(
                f"journaled unit (day={day}, shard={shard}) has no block file"
            ) from exc
        except OSError as exc:
            raise CheckpointCorruption(
                f"journaled unit (day={day}, shard={shard}) unreadable: {exc}"
            ) from exc

    # -- lifecycle -----------------------------------------------------------

    def _clean_temp_files(self) -> int:
        n_removed = 0
        for stray in self.directory.rglob(f"*{_TMP_SUFFIX}"):
            stray.unlink()
            n_removed += 1
        return n_removed

    def close(self) -> None:
        if not self._journal.closed:
            # Best-effort final fsync: the journal lines are already
            # flushed, and close() runs on abort paths where a failing
            # disk must not mask the typed error being raised.
            with contextlib.suppress(OSError):
                self.sync()
            self._journal.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
