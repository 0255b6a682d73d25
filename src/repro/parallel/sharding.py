"""Deterministic shard-by-device assignment for the pipeline fan-out.

Sharding must be a pure function of the device ID — never of Python's
salted ``hash()``, worker count, or arrival order — so that a dataset
shards identically in every process and on every run.  ``shard_of``
hashes the device ID with CRC-32 (stable across platforms and
interpreter invocations) and reduces modulo the shard count.

Because all of a device's records land in one shard, per-shard
accumulators never see partial devices: each shard's catalog rows,
summaries and classifications are exactly the whole-population results
restricted to the shard's devices, which is what makes the
order-independent merge in :mod:`repro.parallel.executor` byte-identical
to a serial run.

Over column stores the hash runs once per device pool entry, and one
stable numpy sort per store groups the row indices: by shard
(:func:`shard_rows`, the executor's shards) or by ``(day, shard)``
(:func:`unit_rows`, a durable run's units).  Both give the partition
:func:`shard_mno_records` gives over the same rows, in the same order.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar, Union

import numpy as np

from repro.columnar.store import ColumnarRadioEvents, ColumnarServiceRecords
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

T = TypeVar("T")


def shard_of(device_id: str, n_shards: int) -> int:
    """Deterministic shard index in ``[0, n_shards)`` for a device ID.

    CRC-32 of the UTF-8 bytes, modulo ``n_shards`` — stable across
    processes, platforms and ``PYTHONHASHSEED`` values, and independent
    of how many workers will consume the shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(device_id.encode("utf-8")) % n_shards


def shard_items(
    items: Iterable[T],
    n_shards: int,
    device_id_of: Optional[Callable[[T], str]] = None,
) -> List[List[T]]:
    """Partition ``items`` into ``n_shards`` lists by hashed device ID.

    ``device_id_of`` extracts the device ID from an item (defaults to
    the ``device_id`` attribute).  Relative order of items within a
    shard is the input order, so per-shard processing sees the same
    record sequence a serial pass would for those devices.
    """
    key = device_id_of if device_id_of is not None else _device_id_attr
    shards: List[List[T]] = [[] for _ in range(n_shards)]
    for item in items:
        shards[shard_of(key(item), n_shards)].append(item)
    return shards


def _device_id_attr(item: T) -> str:
    """Default device-ID extractor: the item's ``device_id`` attribute."""
    return item.device_id  # type: ignore[attr-defined]


def shard_mno_records(
    radio_events: Iterable[RadioEvent],
    service_records: Iterable[ServiceRecord],
    n_shards: int,
) -> List[Tuple[List[RadioEvent], List[ServiceRecord]]]:
    """Shard both MNO record streams by device in one pass each.

    Returns one ``(radio_events, service_records)`` pair per shard; both
    streams of a device always land in the same shard.
    """
    radio_shards = shard_items(radio_events, n_shards)
    service_shards = shard_items(service_records, n_shards)
    return list(zip(radio_shards, service_shards))


#: One unit's row indices in each of two stores: (radio rows, service rows).
UnitRows = Tuple[np.ndarray, np.ndarray]

#: Either column store: both are cut the same way.
_Store = Union[ColumnarRadioEvents, ColumnarServiceRecords]

_NO_ROWS = np.empty(0, dtype=np.intp)


def _pool_shards(
    events: ColumnarRadioEvents, records: ColumnarServiceRecords, n_shards: int
) -> np.ndarray:
    """:func:`shard_of` of every device in the stores' shared pool, by id."""
    if events.pools is not records.pools:
        raise ValueError("columnar streams must share one ColumnPools")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    devices = events.pools.devices.strings
    return np.array([shard_of(device_id, n_shards) for device_id in devices], dtype=np.int64)


def _groups(*keys: np.ndarray) -> Dict[Tuple[int, ...], np.ndarray]:
    """Row indices per distinct tuple of ``keys``, tuples ascending.

    The sort is stable, so each group keeps its rows in stream order.
    """
    order = np.lexsort(keys[::-1])
    ordered = [key[order] for key in keys]
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for key in ordered:
        head[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(head)
    firsts = zip(*(key[starts].tolist() for key in ordered))
    return dict(zip(firsts, np.split(order, starts[1:])))


def _row_shards(store: _Store, shards: np.ndarray) -> np.ndarray:
    """The shard of each of ``store``'s rows."""
    return shards[np.frombuffer(store.device_ids, dtype=np.int64)]


def shard_rows(
    events: ColumnarRadioEvents, records: ColumnarServiceRecords, n_shards: int
) -> List[UnitRows]:
    """Each shard's row indices in two stores sharing one pool set.

    The same partition as :func:`shard_mno_records` over the stores'
    rows, each shard's rows in stream order, with the shard hashed once
    per pool entry instead of once per row.
    """
    shards = _pool_shards(events, records, n_shards)
    radio = _groups(_row_shards(events, shards))
    service = _groups(_row_shards(records, shards))
    return [
        (radio.get((shard,), _NO_ROWS), service.get((shard,), _NO_ROWS))
        for shard in range(n_shards)
    ]


def unit_rows(
    events: ColumnarRadioEvents, records: ColumnarServiceRecords, n_shards: int
) -> Dict[int, List[UnitRows]]:
    """Each ``(day, shard)`` unit's row indices, as ``[day][shard]``.

    One entry per day with rows, days ascending: the rows of that day
    the day's :func:`shard_rows` would give, each unit's rows in stream
    order.  One stable sort per store by ``(day, shard)`` groups every
    unit at once, on any int64 day.
    """
    shards = _pool_shards(events, records, n_shards)

    def units(store: _Store) -> Dict[Tuple[int, ...], np.ndarray]:
        days = np.frombuffer(store.days, dtype=np.int64)
        return _groups(days, _row_shards(store, shards))

    radio, service = units(events), units(records)
    return {
        day: [
            (radio.get((day, shard), _NO_ROWS), service.get((day, shard), _NO_ROWS))
            for shard in range(n_shards)
        ]
        for day in sorted({day for day, _ in radio.keys() | service.keys()})
    }


def shard_columnar_records(
    radio_events: ColumnarRadioEvents,
    service_records: ColumnarServiceRecords,
    n_shards: int,
) -> List[Tuple[ColumnarRadioEvents, ColumnarServiceRecords]]:
    """Shard columnar stores by device, exchanging column blocks.

    The shard function is the same CRC-32-of-device-ID as
    :func:`shard_items` — a device lands in the same shard whichever
    plane is in use — but it is evaluated once per *pool entry* (the
    device vocabulary) rather than once per row (:func:`shard_rows`),
    and each shard is a ``select`` sharing the parent pools, so what
    crosses the process boundary is interned column blocks, never row
    lists.
    """
    return [
        (radio_events.select(radio), service_records.select(service))
        for radio, service in shard_rows(radio_events, service_records, n_shards)
    ]
