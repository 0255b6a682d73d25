"""Durable execution for multi-day pipeline runs.

Three layers, lowest first:

- :mod:`repro.runtime.serialize` — CRC-framed, self-contained
  serialization of one ``(day, shard)`` columnar block;
- :mod:`repro.runtime.checkpoint` — the atomic
  :class:`CheckpointStore`: write-temp → fsync → rename publication,
  versioned run manifest, append-only completion journal;
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

from repro.runtime.checkpoint import (
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.runtime.run import run_durable_pipeline
from repro.runtime.serialize import (
    CheckpointCorruption,
    CheckpointError,
    StaleManifestError,
    pack_day_block,
    unpack_day_block,
)

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
