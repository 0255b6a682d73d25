"""CRC-framed serialization of one ``(day, shard)`` columnar block.

A durable run's unit of work is one shard of one day's records.  Each
unit is persisted as a **self-contained** byte block: the shard slice
dictionary-encoded onto its own :class:`~repro.columnar.store.ColumnPools`
(pool vocabularies embedded), every column written as its raw ``array``
buffer, and — in lenient mode — the unit's quarantine decisions riding
in the header.  Self-containment is what makes resume trivial: a block
can be decoded years later with nothing but this module, no shared pool
state to reconstruct.

The codec itself — framing, column chunking, :func:`pack_columns` and
:func:`unpack_day_block` — lives in :mod:`repro.columnar.blocks`, which
the sharded executor uses for the shards it sends to pool workers;
this module re-exports it so checkpoint, spill and WAL bytes have one
home::

    MAGIC (4) | version u32 | crc32(body) u32 | len(body) u64 | body
    body = header_len u32 | header JSON (utf-8) | column buffers

The CRC covers the whole body, so a torn write (truncated file, partial
rename source) or bit rot is detected before a single row is decoded —
:class:`CheckpointCorruption` is raised, never a silently-wrong catalog.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.columnar.blocks import (
    BLOCK_VERSION,
    MAGIC,
    RADIO_COLUMNS,
    SERVICE_COLUMNS,
    CheckpointCorruption,
    CheckpointError,
    QuarantineEntry,
    load_column_views,
    pack_columns,
    pools_from_header,
    read_block_view,
    unpack_day_block,
)
from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    from_record_streams,
)
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
    "attach_day_block",
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


def attach_day_block(
    data: memoryview,
) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords, List[QuarantineEntry]]:
    """:func:`unpack_day_block` without copying the column buffers.

    Validates exactly like :func:`unpack_day_block` (CRC over the whole
    body, strict length), then attaches each column as a typed
    ``memoryview`` over ``data`` — typically an mmap'd spill file — so
    decoding a block costs one checksum pass plus the pool vocabularies,
    never a buffer copy.  The stores borrow ``data``: release every
    column view (see :class:`repro.runtime.spill.BlockReader`) before
    closing the backing buffer.
    """
    header, body, offset = read_block_view(data)
    events: Optional[ColumnarRadioEvents] = None
    records: Optional[ColumnarServiceRecords] = None
    try:
        pools = pools_from_header(header["pools"])
        events = ColumnarRadioEvents(pools)
        offset = load_column_views(events, header["radio"], body, offset)
        records = ColumnarServiceRecords(pools)
        load_column_views(records, header["service"], body, offset)
        quarantine = [
            (str(device_id), str(stage), str(error))
            for device_id, stage, error in header["quarantine"]
        ]
        return events, records, quarantine
    except BaseException:
        # A half-attached store's views (and this frame's locals, held
        # alive by the raised exception's traceback) would otherwise
        # block closing the backing mmap; release everything attached
        # so far before propagating.
        for store, names in ((events, RADIO_COLUMNS), (records, SERVICE_COLUMNS)):
            if store is None:
                continue
            for name in names:
                column = getattr(store, name, None)
                if isinstance(column, memoryview):
                    column.release()
        raise
    finally:
        body.release()
