"""CRC-framed serialization of one ``(day, shard)`` columnar block.

A durable run's unit of work is one shard of one day's records.  Each
unit is persisted as a **self-contained** byte block: the shard slice
dictionary-encoded onto its own :class:`~repro.columnar.store.ColumnPools`
(pool vocabularies embedded), every column written as its raw ``array``
buffer, and — in lenient mode — the unit's quarantine decisions riding
in the header.  Self-containment is what makes resume trivial: a block
can be decoded years later with nothing but this module, no shared pool
state to reconstruct.

The framing and column chunking live in :mod:`repro.columnar.blocks`
(shared with the zero-copy shard transport)::

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
    build_block,
    column_chunks,
    load_column_chunks,
    load_column_views,
    pools_from_header,
    pools_header,
    read_block,
    read_block_view,
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

#: One lenient-mode quarantine decision: (device_id, stage, error text).
QuarantineEntry = Tuple[str, str, str]


class StaleManifestError(CheckpointError):
    """A checkpoint directory's manifest does not match this run."""


def pack_columns(
    events: ColumnarRadioEvents,
    records: ColumnarServiceRecords,
    quarantine: Sequence[QuarantineEntry] = (),
) -> bytes:
    """Frame two stores sharing one pool set as a checksummed block.

    The pools ride in the header whole, so the stores should own them:
    :func:`pack_day_block` of the same rows gives the same bytes when
    the pools hold exactly the strings those rows interned, in order.
    """
    if events.pools is not records.pools:
        raise ValueError("columnar streams must share one ColumnPools")
    radio_spec, radio_chunks = column_chunks(events, RADIO_COLUMNS)
    service_spec, service_chunks = column_chunks(records, SERVICE_COLUMNS)
    # Header key order is part of the on-disk byte format (version 1
    # blocks predate the shared codec); keep it stable.
    header = {
        "pools": pools_header(events.pools),
        "radio": radio_spec,
        "service": service_spec,
        "quarantine": [list(entry) for entry in quarantine],
    }
    return build_block(header, [*radio_chunks, *service_chunks])


def pack_day_block(
    radio_events: Sequence[RadioEvent],
    service_records: Sequence[ServiceRecord],
    quarantine: Sequence[QuarantineEntry] = (),
) -> bytes:
    """Encode one unit's row slice into a framed, checksummed block."""
    return pack_columns(
        *from_record_streams(radio_events, service_records), quarantine
    )


def unpack_day_block(
    data: bytes,
) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords, List[QuarantineEntry]]:
    """Decode a framed block, validating checksum and version first."""
    header, body, offset = read_block(data)
    pools = pools_from_header(header["pools"])
    events = ColumnarRadioEvents(pools)
    offset = load_column_chunks(events, header["radio"], body, offset)
    records = ColumnarServiceRecords(pools)
    load_column_chunks(records, header["service"], body, offset)
    quarantine = [
        (str(device_id), str(stage), str(error))
        for device_id, stage, error in header["quarantine"]
    ]
    return events, records, quarantine


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
