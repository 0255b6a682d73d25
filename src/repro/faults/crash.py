"""Crash-shaped fault injectors: process death and storage corruption.

PR 2's injectors degrade the *data*; these degrade the *process* and
its checkpoints, so the durable runtime (:mod:`repro.runtime`) can be
tested with the same determinism as the data faults:

- :class:`KillSwitch` — SIGKILL the current process at a named point of
  a durable run (before the Nth unit is published, after a day folds,
  or in the window between a checkpoint's temp write and its rename).
  SIGKILL, not an exception: nothing gets to clean up, exactly like an
  OOM kill or a node drain.
- :func:`tear_day_checkpoint` — truncate a persisted unit block,
  modeling a torn write that the rename discipline cannot prevent
  (e.g. media failure after publication).  Detected by the block CRC.
- :func:`make_manifest_stale` — rewrite a run manifest to an
  unsupported version or a mismatched fingerprint, modeling checkpoint
  directories left behind by older code or different runs.

The injectors are plain functions over a checkpoint directory; the kill
switch threads into :func:`repro.runtime.run.run_durable_pipeline`
through its ``on_unit`` / ``on_day`` / ``before_replace`` seams.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]

#: KillSwitch firing points.
KILL_AT_UNIT = "unit"
KILL_AT_DAY = "day"
KILL_AT_RENAME = "rename"

KILL_POINTS = (KILL_AT_UNIT, KILL_AT_DAY, KILL_AT_RENAME)


@dataclass
class KillSwitch:
    """SIGKILL the process at one deterministic point of a durable run.

    ``point`` selects the seam: :data:`KILL_AT_UNIT` fires just before
    unit ``(day, shard)`` is published (the unit is computed but never
    journaled — a worker death mid-publication); :data:`KILL_AT_DAY`
    fires after ``day`` has been folded into the catalog (between
    days); :data:`KILL_AT_RENAME` fires after the matching unit's temp
    file is written and fsynced but before ``os.replace`` — the
    narrowest torn-publication window.

    Wire it with::

        switch = KillSwitch(point=KILL_AT_UNIT, day=3, shard=1)
        run_durable_pipeline(..., on_unit=switch.on_unit,
                             on_day=switch.on_day,
                             before_replace=switch.before_replace)
    """

    point: str
    day: int = 0
    shard: int = 0

    def __post_init__(self) -> None:
        if self.point not in KILL_POINTS:
            raise ValueError(f"unknown kill point {self.point!r}")

    def fire(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def on_unit(self, day: int, shard: int) -> None:
        if self.point == KILL_AT_UNIT and (day, shard) == (self.day, self.shard):
            self.fire()

    def on_day(self, day: int) -> None:
        if self.point == KILL_AT_DAY and day == self.day:
            self.fire()

    def before_replace(self, target: Path) -> None:
        from repro.runtime.checkpoint import unit_file_name

        if self.point != KILL_AT_RENAME:
            return
        if target.name == unit_file_name(self.day, self.shard):
            self.fire()


def tear_day_checkpoint(
    directory: PathLike, day: int, shard: int, keep_fraction: float = 0.5
) -> Path:
    """Truncate one persisted unit block to ``keep_fraction`` of its bytes.

    Returns the torn path.  The durable runtime must detect the tear by
    CRC on the next load and re-execute exactly that unit.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    from repro.runtime.checkpoint import UNITS_DIRNAME, unit_file_name

    ckpt_path = Path(directory) / UNITS_DIRNAME / unit_file_name(day, shard)
    data = ckpt_path.read_bytes()
    # A deliberately torn write: the injector models exactly the
    # non-atomic behavior DUR001 bans in production code.
    ckpt_path.write_bytes(data[: int(len(data) * keep_fraction)])  # repro: noqa[DUR001]
    return ckpt_path


def tear_journal_tail(directory: PathLike, keep_fraction: float = 0.5) -> Path:
    """Truncate the completion journal's last line mid-record.

    Models a crash while a journal line was being written: the tail no
    longer parses (or fails its self-CRC), so the store must discard it
    — and everything after it — on the next load, *and report the
    discard* (``CheckpointStore.n_torn_journal_lines``) instead of
    recovering silently.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    from repro.runtime.checkpoint import JOURNAL_NAME

    journal_path = Path(directory) / JOURNAL_NAME
    text = journal_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"journal {journal_path} is empty; nothing to tear")
    last = lines[-1]
    torn = last[: int(len(last) * keep_fraction)]
    body = "\n".join(lines[:-1] + [torn])
    # Deliberately non-atomic: the injector models exactly the torn
    # write the durability layer must survive.
    journal_path.write_text(body, encoding="utf-8")  # repro: noqa[DUR001]
    return journal_path


def make_manifest_stale(directory: PathLike, mode: str = "version") -> Path:
    """Rewrite a run manifest so resume must refuse it.

    ``mode="version"`` stamps an unsupported manifest version (old
    tooling's directory); ``mode="fingerprint"`` rewrites the recorded
    fingerprint to a different run's (checksum kept consistent, so the
    mismatch is semantic, not corruption).
    """
    from repro.runtime.checkpoint import MANIFEST_NAME, _payload_crc

    manifest_path = Path(directory) / MANIFEST_NAME
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    if mode == "version":
        doc["version"] = 0
    elif mode == "fingerprint":
        doc["payload"]["fingerprint"] = {"source": "a-different-run"}
        doc["crc32"] = _payload_crc(doc["payload"])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    manifest_path.write_text(  # repro: noqa[DUR001]
        json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8"
    )
    return manifest_path
