"""Store scrubbing: verify CRCs end-to-end, classify and repair damage.

A checkpoint store (or the daemon's WAL, which is one) can rot *at
rest*: the run that wrote it saw every write succeed, and the damage —
a flipped byte, a truncated tail from a lost cache, a unit file that
vanished — surfaces only when a resume finally reads the unit, possibly
weeks later.  :func:`scrub_store` is the proactive half of the
durability story: walk a store **without opening it as a run** (no
attempt bump, no fingerprint needed), re-validate every journaled
unit's framed block CRC end-to-end, and classify what fails.  Every
unit, the daemon's WAL units included, is one plain block, so it is
classified from its own bytes, whatever the manifest says:

``torn-tail``
    The file is shorter than its frame header declares (or too short to
    hold a frame at all) — the signature of an interrupted write.
``bit-rot``
    The full length is present but the content fails validation (CRC
    mismatch, bad magic/version, trailing bytes) — at-rest corruption.
``missing``
    The journal names a unit whose block file does not exist.
``read-error``
    The file cannot be read at all (``EIO`` from a failing device).

With ``repair=True`` the scrubber heals what it can: a ``recompute``
callback re-derives a unit's bytes from the original inputs (units are
pure, so the rebuilt block is byte-identical) and the unit is
atomically rewritten and re-verified.  It recomputes only in a batch
run's store whose manifest reads: the shard count comes from the
manifest, and the WAL's batches have no inputs to re-derive.  Units it
cannot rebuild are **marked for re-execution** — the block file is
removed and the unit's journal entries are dropped (journal atomically
rewritten), so the next ``resume=True`` run recomputes exactly the
damaged units.  Stray
staging temps and a torn journal tail are swept the same way the store
itself would sweep them on open.

Everything is reported in a typed :class:`ScrubReport`; the CLI
(``repro scrub``) prints it and exits nonzero while damage remains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.columnar.blocks import _FRAME, pack_columns, unpack_day_block
from repro.columnar.store import from_record_streams, select_own_pools
from repro.runtime import fsio
from repro.runtime.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    UNITS_DIRNAME,
    CheckpointError,
    JournalEntry,
    PathLike,
    atomic_write_bytes,
    load_manifest,
    read_journal,
    stray_temp_files,
    sweep_temp_files,
    unit_file_name,
    write_journal,
)

__all__ = [
    "DAMAGE_BIT_ROT",
    "DAMAGE_MISSING",
    "DAMAGE_READ_ERROR",
    "DAMAGE_TORN_TAIL",
    "DamagedUnit",
    "Recompute",
    "ScrubReport",
    "recompute_from_dataset",
    "scrub_store",
]

DAMAGE_TORN_TAIL = "torn-tail"
DAMAGE_BIT_ROT = "bit-rot"
DAMAGE_MISSING = "missing"
DAMAGE_READ_ERROR = "read-error"

#: What the scrubber did about one damaged unit.
ACTION_REPORTED = "reported"
ACTION_RECOMPUTED = "recomputed"
ACTION_MARKED_RERUN = "marked-for-rerun"

#: ``recompute(day, shard, n_shards) -> bytes | None``: re-derive one
#: unit's block bytes from original inputs, or ``None`` if it cannot.
Recompute = Callable[[int, int, int], Optional[bytes]]


@dataclass(frozen=True)
class DamagedUnit:
    """One journaled unit that failed end-to-end verification."""

    day: int
    shard: int
    damage: str
    action: str = ACTION_REPORTED
    detail: str = ""

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return (
            f"unit (day={self.day}, shard={self.shard}) {self.damage} "
            f"[{self.action}]{suffix}"
        )


@dataclass
class ScrubReport:
    """Typed outcome of one :func:`scrub_store` walk."""

    directory: str
    n_journaled_units: int = 0
    n_verified_ok: int = 0
    damaged: List[DamagedUnit] = field(default_factory=list)
    n_recomputed: int = 0
    n_marked_for_rerun: int = 0
    n_torn_journal_lines: int = 0
    n_stray_tmp: int = 0
    manifest_error: str = ""
    repaired: bool = False

    @property
    def unrepaired(self) -> List[DamagedUnit]:
        """Damage the scrub did not (or could not) resolve."""
        return [unit for unit in self.damaged if unit.action == ACTION_REPORTED]

    @property
    def ok(self) -> bool:
        """True when the store verified clean end to end."""
        return (
            not self.damaged
            and not self.n_torn_journal_lines
            and not self.n_stray_tmp
            and not self.manifest_error
        )

    @property
    def healthy_after_scrub(self) -> bool:
        """True when nothing unresolved remains (clean, or fully repaired)."""
        return not self.unrepaired and not self.manifest_error and (
            self.repaired or self.ok
        )

    def payload(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "n_journaled_units": self.n_journaled_units,
            "n_verified_ok": self.n_verified_ok,
            "n_damaged": len(self.damaged),
            "damaged": [
                {
                    "day": unit.day,
                    "shard": unit.shard,
                    "damage": unit.damage,
                    "action": unit.action,
                    "detail": unit.detail,
                }
                for unit in self.damaged
            ],
            "n_recomputed": self.n_recomputed,
            "n_marked_for_rerun": self.n_marked_for_rerun,
            "n_torn_journal_lines": self.n_torn_journal_lines,
            "n_stray_tmp": self.n_stray_tmp,
            "manifest_error": self.manifest_error,
            "repaired": self.repaired,
            "ok": self.ok,
            "healthy_after_scrub": self.healthy_after_scrub,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def format(self) -> str:
        lines = [
            f"scrub {self.directory}: "
            f"{self.n_verified_ok}/{self.n_journaled_units} unit(s) verified ok"
        ]
        for unit in self.damaged:
            lines.append(f"  {unit}")
        if self.n_torn_journal_lines:
            action = "truncated" if self.repaired else "found"
            lines.append(
                f"  journal: {action} torn tail "
                f"({self.n_torn_journal_lines} line(s))"
            )
        if self.n_stray_tmp:
            action = "removed" if self.repaired else "found"
            lines.append(f"  staging: {action} {self.n_stray_tmp} stray temp file(s)")
        if self.manifest_error:
            lines.append(f"  manifest: {self.manifest_error}")
        if self.repaired:
            lines.append(
                f"  repair: {self.n_recomputed} recomputed, "
                f"{self.n_marked_for_rerun} marked for re-execution on resume"
            )
        lines.append("  status: " + ("healthy" if self.ok else (
            "repaired" if self.healthy_after_scrub else "damage remains"
        )))
        return "\n".join(lines)


def _classify_block(data: bytes) -> Optional[Tuple[str, str]]:
    """(damage class, detail) for one unit's bytes, or ``None`` if clean.

    Length-first: a file shorter than its frame header declares is a
    torn tail (an interrupted write truncates; rot does not shorten a
    file), anything else that fails validation at full length is bit
    rot.  Validation is end-to-end — after the frame CRC the block is
    fully decoded, so a block whose CRC collided with damaged content
    still cannot pass.
    """
    frame_size = _FRAME.size
    if len(data) < frame_size:
        return (
            DAMAGE_TORN_TAIL,
            f"file holds {len(data)} byte(s), frame needs {frame_size}",
        )
    _magic, _version, _crc, body_len = _FRAME.unpack_from(data)
    declared = frame_size + int(body_len)
    if len(data) < declared:
        return (
            DAMAGE_TORN_TAIL,
            f"file holds {len(data)} of {declared} declared byte(s)",
        )
    try:
        unpack_day_block(data)
    except Exception as exc:  # noqa: BLE001 — every decode failure at
        # full declared length is at-rest corruption, whatever its type.
        return (DAMAGE_BIT_ROT, f"{type(exc).__name__}: {exc}")
    return None


def scrub_store(
    directory: PathLike,
    repair: bool = False,
    recompute: Optional[Recompute] = None,
) -> ScrubReport:
    """Walk one store, verifying every journaled unit end-to-end.

    Read-only unless ``repair=True``.  Raises :class:`CheckpointError`
    if ``directory`` holds no manifest at all (not a store); a corrupt
    manifest is *reported* (``manifest_error``) and the walk continues —
    journal and units are self-validating and independently useful.
    """
    root = Path(directory)
    report = ScrubReport(directory=str(root), repaired=repair)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"{root} holds no {MANIFEST_NAME}; not a store")

    # The shard count a recompute needs; it stays 0, and nothing is
    # recomputed, when the manifest does not read or names the daemon's
    # WAL (whose batches have no inputs to recompute from).
    n_shards = 0
    try:
        payload = load_manifest(manifest_path)
        if payload["fingerprint"].get("role") != "service-wal":
            n_shards = payload["n_shards"]
    except CheckpointError as exc:
        report.manifest_error = str(exc)

    entries: List[JournalEntry] = []
    journal_path = root / JOURNAL_NAME
    if journal_path.exists():
        try:
            entries, report.n_torn_journal_lines = read_journal(journal_path)
        except OSError as exc:
            raise CheckpointError(f"journal unreadable: {exc}") from exc

    units_dir = root / UNITS_DIRNAME
    seen = {(entry["day"], entry["shard"]) for entry in entries}
    report.n_journaled_units = len(seen)

    for day, shard in sorted(seen):
        path = units_dir / unit_file_name(day, shard)
        if not path.exists():
            report.damaged.append(
                DamagedUnit(day, shard, DAMAGE_MISSING, detail=str(path.name))
            )
            continue
        try:
            data = fsio.read_file_bytes(path)
        except OSError as exc:
            report.damaged.append(
                DamagedUnit(day, shard, DAMAGE_READ_ERROR, detail=str(exc))
            )
            continue
        verdict = _classify_block(data)
        if verdict is None:
            report.n_verified_ok += 1
            continue
        damage, detail = verdict
        report.damaged.append(DamagedUnit(day, shard, damage, detail=detail))

    report.n_stray_tmp = len(stray_temp_files(root))

    if not repair:
        return report

    # -- repair pass ---------------------------------------------------------
    sweep_temp_files(root)

    rerun: List[Tuple[int, int]] = []
    healed: List[DamagedUnit] = []
    for unit in report.damaged:
        path = units_dir / unit_file_name(unit.day, unit.shard)
        rebuilt: Optional[bytes] = None
        if recompute is not None and n_shards:
            rebuilt = recompute(unit.day, unit.shard, n_shards)
        if rebuilt is not None and _classify_block(rebuilt) is None:
            atomic_write_bytes(path, rebuilt)
            report.n_recomputed += 1
            healed.append(
                DamagedUnit(
                    unit.day,
                    unit.shard,
                    unit.damage,
                    action=ACTION_RECOMPUTED,
                    detail=unit.detail,
                )
            )
        else:
            # Cannot rebuild here: drop the unit so the next resume
            # re-executes it (WAL units were by definition acked, but a
            # damaged one was already unreplayable — dropping it turns a
            # latent replay failure into an explicit re-send).
            path.unlink(missing_ok=True)
            rerun.append((unit.day, unit.shard))
            report.n_marked_for_rerun += 1
            healed.append(
                DamagedUnit(
                    unit.day,
                    unit.shard,
                    unit.damage,
                    action=ACTION_MARKED_RERUN,
                    detail=unit.detail,
                )
            )
    report.damaged = healed

    if rerun or report.n_torn_journal_lines:
        dropped = set(rerun)
        write_journal(
            journal_path,
            (entry for entry in entries if (entry["day"], entry["shard"]) not in dropped),
        )
    return report


def recompute_from_dataset(dataset: Any) -> Recompute:
    """Build a :data:`Recompute` that re-derives units from a dataset.

    Units are pure functions of (day, shard count) in strict and lenient
    stores alike, so the returned callback rebuilds byte-identical
    blocks from the same in-memory dataset the original run consumed.
    It cuts the dataset's interned stores the way the durable run does,
    once per shard count, and gathers only the requested unit: no row
    is built.
    """
    from repro.parallel.sharding import UnitRows, unit_rows

    events, records = dataset.columns or from_record_streams(
        dataset.radio_events, dataset.service_records
    )
    cuts: Dict[int, Dict[int, List[UnitRows]]] = {}

    def recompute(day: int, shard: int, n_shards: int) -> Optional[bytes]:
        if n_shards < 1 or shard >= n_shards:
            return None
        if n_shards not in cuts:
            cuts[n_shards] = unit_rows(events, records, n_shards)
        day_units = cuts[n_shards].get(day)
        if day_units is None:
            # A day without rows: its units are empty.
            return pack_columns(*select_own_pools(events, records, [], []))
        return pack_columns(*select_own_pools(events, records, *day_units[shard]))

    return recompute
