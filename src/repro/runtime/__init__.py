"""Durable execution for multi-day pipeline runs.

Two layers, lowest first, over the program's one codec
(:mod:`repro.columnar.blocks`, which frames each ``(day, shard)`` unit
as one self-contained, CRC-framed column block):

- :mod:`repro.runtime.checkpoint` — the atomic
  :class:`CheckpointStore`: write-temp → fsync → rename publication,
  versioned run manifest, append-only completion journal, and the
  store's on-disk layout, which the scrubber
  (:mod:`repro.runtime.scrub`) reads too;
- :mod:`repro.runtime.run` — :func:`run_durable_pipeline`, the
  in-process day loop that builds each day's pending units, persists
  them, and folds them (and, on resume, the units already journaled)
  into the incremental catalog engine.

The contract the chaos kill-matrix enforces: kill the run at any
instant, resume it, and the catalogs, summaries and classifier output
are byte-identical to an uninterrupted run.

:func:`atomic_write_bytes` / :func:`atomic_write_text` are exported for
any code that persists durable artifacts (checkpoints, bench baselines);
lint rule ``DUR001`` bans non-atomic writes of such artifacts outside
this package.
"""

from repro.columnar.blocks import (
    CheckpointCorruption,
    CheckpointError,
    pack_day_block,
    unpack_day_block,
)
from repro.runtime.checkpoint import (
    CheckpointStore,
    StaleManifestError,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.runtime.run import run_durable_pipeline

__all__ = [
    "CheckpointCorruption",
    "CheckpointError",
    "CheckpointStore",
    "StaleManifestError",
    "atomic_write_bytes",
    "atomic_write_text",
    "pack_day_block",
    "run_durable_pipeline",
    "unpack_day_block",
]
