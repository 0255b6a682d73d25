"""CRC-framed column blocks: the program's one codec.

Durable checkpoint units (:mod:`repro.runtime`), the daemon's WAL
entries (:mod:`repro.service.wal`) and the shards the sharded executor
sends to pool workers (:mod:`repro.parallel.executor`) all move
columnar stores as one framed byte block: a JSON header holding the
pool vocabularies and column layout, followed by each column's raw
``array`` buffer.  Every other value that crosses a process boundary
(a worker's day records and summaries) rides the pool's own pickle.
This module owns the format — framing, column chunking, pool
encode/decode, the self-contained :func:`pack_columns` /
:func:`unpack_day_block` pair and :func:`pack_day_block`, its row-list
reference — so no consumer can drift from it.  Columns are packed and
unpacked by each store's schema (its ``COLUMNS``), and a block whose
header lists another column layout, whose chunks do not fill its body
with whole rows, or whose rows no store could hold (an id past its
pool, an enum code past its order, a day that is not its timestamp's,
a row the row checks refuse) is refused, as is a header in any other
shape than the one :func:`pack_columns` writes.  It imports nothing
above :mod:`repro.columnar`, so the pool seam can use it without
pulling in :mod:`repro.runtime`.

Framing (format version |BLOCK_VERSION|)::

    MAGIC (4) | version u32 | crc32(body) u32 | len(body) u64 | body
    body = header_len u32 | header JSON (utf-8) | column buffers

The CRC covers the whole body, so a torn write (truncated file, partial
rename source) or bit rot is detected before a single row is decoded —
:class:`CheckpointCorruption` is raised, never a silently-wrong block.
A CRC-valid block from another writer gets the same error when its
header is not a JSON object of the expected shape, its columns do not
match the schema or its rows do not decode.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import Any, Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.columnar.store import (
    NULL_ID,
    ColumnPools,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    StringPool,
    _days_of,
    _first,
    _view,
    check_stores,
    from_record_streams,
)
from repro.signaling.cdr import SERVICE_TYPES, ServiceRecord
from repro.signaling.events import RADIO_INTERFACES, RadioEvent
from repro.signaling.procedures import MESSAGE_TYPES, RESULT_CODES

MAGIC = b"RPCK"
BLOCK_VERSION = 1

_FRAME = struct.Struct("<4sIIQ")
_HEADER_LEN = struct.Struct("<I")

#: Column names in block order, fixed per format version: the stores'
#: schemas.
RADIO_COLUMNS = tuple(name for name, _ in ColumnarRadioEvents.COLUMNS)
SERVICE_COLUMNS = tuple(name for name, _ in ColumnarServiceRecords.COLUMNS)


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
    offset = _HEADER_LEN.size
    try:
        (header_len,) = _HEADER_LEN.unpack_from(body)
        header = json.loads(body[offset:offset + header_len].decode("utf-8"))
    except (struct.error, ValueError, RecursionError) as exc:
        raise CheckpointCorruption(f"unreadable block header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointCorruption(
            f"block header is a JSON {type(header).__name__}, not an object"
        )
    return header, body, offset + header_len


# -- column chunking ---------------------------------------------------------

ColumnSpec = List[Any]  # [name, typecode, nbytes] in the JSON header


def column_chunks(
    store: Union[ColumnarRadioEvents, ColumnarServiceRecords],
) -> Tuple[List[ColumnSpec], List[bytes]]:
    """Spec rows and raw buffers for ``store``'s columns, in schema order."""
    specs: List[ColumnSpec] = []
    chunks: List[bytes] = []
    for name, _ in store.COLUMNS:
        column: array = getattr(store, name)
        data = column.tobytes()
        specs.append([name, column.typecode, len(data)])
        chunks.append(data)
    return specs, chunks


def load_column_chunks(
    store: Union[ColumnarRadioEvents, ColumnarServiceRecords],
    specs: Any,
    body: bytes,
    offset: int,
) -> int:
    """Rehydrate columns from ``body`` at ``offset``; return new offset.

    Raises :class:`CheckpointCorruption` unless ``specs`` lists the
    store's schema (names, order and typecodes), each chunk lies in the
    body and holds whole items, and every column holds one row count.
    """
    kind = type(store).__name__
    try:
        layout = tuple((name, typecode) for name, typecode, _ in specs)
    except (TypeError, ValueError) as exc:
        raise CheckpointCorruption(f"malformed {kind} column specs: {exc}") from None
    if layout != store.COLUMNS:
        raise CheckpointCorruption(f"{kind} column layout {list(layout)} is not its schema's")
    n_rows: Set[int] = set()
    for name, typecode, nbytes in specs:
        column = array(typecode)
        chunk = body[offset:offset + nbytes] if isinstance(nbytes, int) else None
        if chunk is None or len(chunk) != nbytes or nbytes % column.itemsize:
            raise CheckpointCorruption(
                f"{kind} column {name} spans {nbytes!r} of the body's "
                f"{len(body) - offset} bytes left, not whole {typecode!r} items"
            )
        column.frombytes(chunk)
        offset += nbytes
        setattr(store, name, column)
        n_rows.add(len(column))
    if len(n_rows) > 1:
        raise CheckpointCorruption(f"{kind} columns hold {sorted(n_rows)} rows")
    return offset


# -- pool vocabularies -------------------------------------------------------

def pools_header(pools: ColumnPools) -> Dict[str, List[str]]:
    """The JSON-serializable vocabulary of a pool set, in id order."""
    return {
        "devices": list(pools.devices.strings),
        "plmns": list(pools.plmns.strings),
        "apns": list(pools.apns.strings),
    }


def _field(header: Any, name: str, what: str = "block header") -> Any:
    """``header[name]``, or :class:`CheckpointCorruption` when ``header``
    is no JSON object holding it."""
    if not isinstance(header, dict) or name not in header:
        raise CheckpointCorruption(f"{what} has no {name!r} entry")
    return header[name]


def pools_from_header(header: Any) -> ColumnPools:
    """Rebuild a pool set from :func:`pools_header` output.

    Raises :class:`CheckpointCorruption` unless each pool is a list of
    distinct strings, the only vocabulary whose ids are its positions.
    """
    pools = []
    for name in ("devices", "plmns", "apns"):
        strings = _field(header, name, "block pools")
        if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
            raise CheckpointCorruption(f"block pool {name!r} is not a list of strings")
        pool = StringPool(strings)
        if len(pool) != len(strings):
            raise CheckpointCorruption(f"block pool {name!r} repeats a string")
        pools.append(pool)
    return ColumnPools(*pools)


# -- self-contained column blocks --------------------------------------------

def pack_columns(
    events: ColumnarRadioEvents, records: ColumnarServiceRecords
) -> bytes:
    """Frame two stores sharing one pool set as a checksummed block.

    The pools ride in the header whole, so the block decodes with
    nothing else at hand.  Stores that own their pools (a checkpoint
    unit) give the same bytes as :func:`pack_day_block` of the same
    rows; a shard ``select``-ed from a larger store carries the whole
    parent vocabulary.
    """
    if events.pools is not records.pools:
        raise ValueError("columnar streams must share one ColumnPools")
    radio_spec, radio_chunks = column_chunks(events)
    service_spec, service_chunks = column_chunks(records)
    # Header key order and the empty quarantine list are part of the
    # on-disk byte format (version 1 blocks predate the shared codec);
    # keep them stable.
    header = {
        "pools": pools_header(events.pools),
        "radio": radio_spec,
        "service": service_spec,
        "quarantine": [],
    }
    return build_block(header, [*radio_chunks, *service_chunks])


def pack_day_block(
    radio_events: Sequence[RadioEvent], service_records: Sequence[ServiceRecord]
) -> bytes:
    """Encode a row slice into a framed block: the row-list reference
    for :func:`pack_columns` of interned stores."""
    return pack_columns(*from_record_streams(radio_events, service_records))


def _check_rows(events: ColumnarRadioEvents, records: ColumnarServiceRecords) -> None:
    """Raise :class:`CheckpointCorruption` unless decoded stores hold rows
    a store could hold: each id names an entry of its own pool
    (:data:`NULL_ID` only among APNs), each enum code lies in its
    canonical order, each day is its timestamp's day, and the pair
    passes :func:`~repro.columnar.store.check_stores`."""
    pools = events.pools
    ranges = (
        ("radio device_ids", events.device_ids, 0, len(pools.devices)),
        ("radio sim_plmns", events.sim_plmns, 0, len(pools.plmns)),
        ("radio interfaces", events.interfaces, 0, len(RADIO_INTERFACES)),
        ("radio event_types", events.event_types, 0, len(MESSAGE_TYPES)),
        ("radio results", events.results, 0, len(RESULT_CODES)),
        ("service device_ids", records.device_ids, 0, len(pools.devices)),
        ("service sim_plmns", records.sim_plmns, 0, len(pools.plmns)),
        ("service visited_plmns", records.visited_plmns, 0, len(pools.plmns)),
        ("service services", records.services, 0, len(SERVICE_TYPES)),
        ("service apns", records.apns, NULL_ID, len(pools.apns)),
    )
    for label, column, low, end in ranges:
        values = _view(column)
        outside = (values < low) | (values >= end)
        if outside.any():
            raise CheckpointCorruption(
                f"{label} holds {_first(values, outside)}, outside [{low}, {end})"
            )
    for label, store in (("radio", events), ("service", records)):
        if not np.array_equal(_view(store.days), _view(_days_of(store.timestamps))):
            raise CheckpointCorruption(f"{label} days are not their timestamps' days")
    try:
        check_stores(events, records)
    except (TypeError, ValueError) as exc:
        raise CheckpointCorruption(f"decoded rows fail the row checks: {exc}") from None


def unpack_day_block(
    data: bytes,
) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords]:
    """Decode a framed block: its checksum and version, then its columns.

    The header must hold its pools, column specs and an empty
    quarantine list in the shapes :func:`pack_columns` writes, the
    column layout must match the stores' schemas (see
    :func:`load_column_chunks`), the columns must fill the body, and
    their rows must decode (:func:`_check_rows`).  A block that lists
    quarantined devices was written by a per-unit validator that left
    their rows out, so it is refused as corruption too.
    """
    header, body, offset = read_block(data)
    pools = pools_from_header(_field(header, "pools"))
    if _field(header, "quarantine") != []:
        raise CheckpointCorruption(
            "block quarantine is not empty: it lists quarantined devices "
            "whose rows it leaves out"
        )
    events = ColumnarRadioEvents(pools)
    offset = load_column_chunks(events, _field(header, "radio"), body, offset)
    records = ColumnarServiceRecords(pools)
    offset = load_column_chunks(records, _field(header, "service"), body, offset)
    if offset != len(body):
        raise CheckpointCorruption(
            f"column chunks end at byte {offset} of a {len(body)}-byte body"
        )
    _check_rows(events, records)
    return events, records
