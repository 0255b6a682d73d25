"""CRC-framed column blocks: the one codec for columns at rest and in flight.

Durable checkpoint units and WAL entries
(:mod:`repro.runtime.serialize`) and the shards the sharded executor
sends to pool workers (:mod:`repro.parallel.transport`) all move
columnar stores as one framed byte block: a JSON header holding the
pool vocabularies and column layout, followed by each column's raw
``array`` buffer.  This module owns that format — framing, column
chunking, pool encode/decode and the self-contained
:func:`pack_columns` / :func:`unpack_day_block` pair — so no consumer
can drift from it.  It imports nothing above :mod:`repro.columnar`, so
the pool seam can use it without pulling in :mod:`repro.runtime`.

Framing (format version |BLOCK_VERSION|)::

    MAGIC (4) | version u32 | crc32(body) u32 | len(body) u64 | body
    body = header_len u32 | header JSON (utf-8) | column buffers

The CRC covers the whole body, so a torn write (truncated file, partial
rename source) or bit rot is detected before a single row is decoded —
:class:`CheckpointCorruption` is raised, never a silently-wrong block.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.columnar.store import (
    ColumnPools,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    StringPool,
)

MAGIC = b"RPCK"
BLOCK_VERSION = 1

_FRAME = struct.Struct("<4sIIQ")
_HEADER_LEN = struct.Struct("<I")

#: Column storage order, fixed per format version.  Mirrors the
#: ``__slots__`` of the columnar stores minus ``pools``.
RADIO_COLUMNS = (
    "device_ids",
    "timestamps",
    "days",
    "sim_plmns",
    "tacs",
    "sector_ids",
    "interfaces",
    "event_types",
    "results",
)
SERVICE_COLUMNS = (
    "device_ids",
    "timestamps",
    "days",
    "sim_plmns",
    "visited_plmns",
    "services",
    "durations",
    "bytes_totals",
    "apns",
)


class CheckpointError(RuntimeError):
    """Base class for durable-run checkpoint failures."""


class CheckpointCorruption(CheckpointError):
    """A persisted payload failed checksum or format validation."""


# -- framing -----------------------------------------------------------------

def build_block(header: Dict[str, Any], chunks: Sequence[bytes]) -> bytes:
    """Frame ``header`` (JSON, key order preserved) plus raw buffers."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = b"".join([_HEADER_LEN.pack(len(header_bytes)), header_bytes, *chunks])
    frame = _FRAME.pack(MAGIC, BLOCK_VERSION, zlib.crc32(body), len(body))
    return frame + body


def read_block(data: bytes) -> Tuple[Dict[str, Any], bytes, int]:
    """Validate a framed block; return (header, body, buffers offset).

    Strict about length: trailing bytes beyond the recorded body length
    are corruption (a torn or concatenated write), exactly as the
    durable checkpoint store requires.
    """
    if len(data) < _FRAME.size:
        raise CheckpointCorruption(
            f"block too short for frame ({len(data)} bytes)"
        )
    magic, version, crc, body_len = _FRAME.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointCorruption(f"bad magic {bytes(magic)!r}")
    if version != BLOCK_VERSION:
        raise CheckpointCorruption(
            f"block version {version} != supported {BLOCK_VERSION}"
        )
    body = data[_FRAME.size:]
    if len(body) != body_len:
        raise CheckpointCorruption(
            f"torn block: body holds {len(body)} of {body_len} bytes"
        )
    if zlib.crc32(body) != crc:
        raise CheckpointCorruption("block checksum mismatch")
    (header_len,) = _HEADER_LEN.unpack_from(body)
    offset = _HEADER_LEN.size
    header = json.loads(body[offset:offset + header_len].decode("utf-8"))
    return header, body, offset + header_len


# -- column chunking ---------------------------------------------------------

ColumnSpec = List[Any]  # [name, typecode, nbytes] in the JSON header


def column_chunks(
    store: Union[ColumnarRadioEvents, ColumnarServiceRecords],
    names: Sequence[str],
) -> Tuple[List[ColumnSpec], List[bytes]]:
    """Spec rows and raw buffers for ``store``'s columns, in order."""
    specs: List[ColumnSpec] = []
    chunks: List[bytes] = []
    for name in names:
        column: array = getattr(store, name)
        data = column.tobytes()
        specs.append([name, column.typecode, len(data)])
        chunks.append(data)
    return specs, chunks


def load_column_chunks(
    store: Union[ColumnarRadioEvents, ColumnarServiceRecords],
    specs: Sequence[ColumnSpec],
    body: bytes,
    offset: int,
) -> int:
    """Rehydrate columns from ``body`` at ``offset``; return new offset."""
    for name, typecode, nbytes in specs:
        column = array(typecode)
        column.frombytes(body[offset:offset + nbytes])
        offset += nbytes
        setattr(store, name, column)
    return offset


# -- pool vocabularies -------------------------------------------------------

def pools_header(pools: ColumnPools) -> Dict[str, List[str]]:
    """The JSON-serializable vocabulary of a pool set, in id order."""
    return {
        "devices": list(pools.devices.strings),
        "plmns": list(pools.plmns.strings),
        "apns": list(pools.apns.strings),
    }


def pools_from_header(header: Dict[str, List[str]]) -> ColumnPools:
    """Rebuild a pool set from :func:`pools_header` output."""
    return ColumnPools(
        devices=StringPool(header["devices"]),
        plmns=StringPool(header["plmns"]),
        apns=StringPool(header["apns"]),
    )


# -- self-contained column blocks --------------------------------------------

#: One lenient-mode quarantine decision: (device_id, stage, error text).
QuarantineEntry = Tuple[str, str, str]


def pack_columns(
    events: ColumnarRadioEvents,
    records: ColumnarServiceRecords,
    quarantine: Sequence[QuarantineEntry] = (),
) -> bytes:
    """Frame two stores sharing one pool set as a checksummed block.

    The pools ride in the header whole, so the block decodes with
    nothing else at hand.  Stores that own their pools (a checkpoint
    unit) give the same bytes as ``pack_day_block`` of the same rows; a
    shard ``select``-ed from a larger store carries the whole parent
    vocabulary.
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
