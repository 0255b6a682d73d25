"""CRC-framed serialization of one ``(day, shard)`` columnar block.

A durable run's unit of work is one shard of one day's records.  Each
unit is persisted as a **self-contained** byte block: the shard slice
dictionary-encoded onto its own :class:`~repro.columnar.store.ColumnPools`
(pool vocabularies embedded), every column written as its raw ``array``
buffer, and a header ``quarantine`` list that units now always write
empty (lenient runs quarantine at the final snapshot; a unit from the
older per-unit validator lists its left-out devices there, and a resume
rebuilds it).  Self-containment is what makes resume trivial: a block
can be decoded years later with nothing but this module, no shared pool
state to reconstruct.

The codec itself — framing, column chunking, :func:`pack_columns` and
:func:`unpack_day_block` — lives in :mod:`repro.columnar.blocks`, which
the sharded executor uses for the shards it sends to pool workers;
this module re-exports it so checkpoint and WAL bytes have one home::

    MAGIC (4) | version u32 | crc32(body) u32 | len(body) u64 | body
    body = header_len u32 | header JSON (utf-8) | column buffers

The CRC covers the whole body, so a torn write (truncated file, partial
rename source) or bit rot is detected before a single row is decoded —
:class:`CheckpointCorruption` is raised, never a silently-wrong catalog.
"""

from __future__ import annotations

from typing import Sequence

from repro.columnar.blocks import (
    BLOCK_VERSION,
    MAGIC,
    RADIO_COLUMNS,
    SERVICE_COLUMNS,
    CheckpointCorruption,
    CheckpointError,
    QuarantineEntry,
    pack_columns,
    unpack_day_block,
)
from repro.columnar.store import from_record_streams
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

__all__ = [
    "BLOCK_VERSION",
    "MAGIC",
    "RADIO_COLUMNS",
    "SERVICE_COLUMNS",
    "CheckpointCorruption",
    "CheckpointError",
    "QuarantineEntry",
    "StaleManifestError",
    "pack_columns",
    "pack_day_block",
    "unpack_day_block",
]


class StaleManifestError(CheckpointError):
    """A checkpoint directory's manifest does not match this run."""


def pack_day_block(
    radio_events: Sequence[RadioEvent],
    service_records: Sequence[ServiceRecord],
    quarantine: Sequence[QuarantineEntry] = (),
) -> bytes:
    """Encode one unit's row slice into a framed, checksummed block."""
    return pack_columns(
        *from_record_streams(radio_events, service_records), quarantine
    )
