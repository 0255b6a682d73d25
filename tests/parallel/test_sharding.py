"""Deterministic device sharding: stability, coverage, co-location."""

import zlib

import pytest

from repro.parallel.sharding import (
    shard_items,
    shard_mno_records,
    shard_of,
    shard_rows,
    unit_rows,
)


def test_shard_of_is_stable_and_in_range():
    for n_shards in (1, 2, 4, 7):
        for device_id in ("dev-a", "dev-b", "poison-00", ""):
            shard = shard_of(device_id, n_shards)
            assert 0 <= shard < n_shards
            # Stable: pure function of (device_id, n_shards).
            assert shard == shard_of(device_id, n_shards)


def test_shard_of_matches_crc32():
    assert shard_of("dev-a", 4) == zlib.crc32(b"dev-a") % 4


def test_shard_of_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        shard_of("dev-a", 0)


def test_shard_items_partitions_and_preserves_order():
    class Item:
        def __init__(self, device_id, seq):
            self.device_id = device_id
            self.seq = seq

    items = [Item(f"dev-{i % 5}", i) for i in range(50)]
    shards = shard_items(items, 3)
    assert sum(len(shard) for shard in shards) == len(items)
    for index, shard in enumerate(shards):
        for item in shard:
            assert shard_of(item.device_id, 3) == index
        # In-shard order is input order.
        assert [item.seq for item in shard] == sorted(item.seq for item in shard)


def test_shard_mno_records_colocates_device_streams(mno_dataset):
    shards = shard_mno_records(
        mno_dataset.radio_events, mno_dataset.service_records, 4
    )
    assert len(shards) == 4
    for index, (events, records) in enumerate(shards):
        for event in events:
            assert shard_of(event.device_id, 4) == index
        for record in records:
            assert shard_of(record.device_id, 4) == index
    n_events = sum(len(events) for events, _ in shards)
    n_records = sum(len(records) for _, records in shards)
    assert n_events == len(mno_dataset.radio_events)
    assert n_records == len(mno_dataset.service_records)


def _rows_by_day(rows):
    days = {}
    for row in rows:
        days.setdefault(int(row.timestamp // 86400.0), []).append(row)
    return days


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_unit_rows_is_the_row_partition_by_day_and_shard(mno_dataset, n_shards):
    """Each (day, shard) unit's indices pick the rows the row reference
    (day slice, then ``shard_mno_records``) gives, in stream order."""
    events, records = mno_dataset.columns
    cut = unit_rows(events, records, n_shards)
    radio, service = (
        _rows_by_day(mno_dataset.radio_events),
        _rows_by_day(mno_dataset.service_records),
    )
    assert list(cut) == sorted(radio.keys() | service.keys())
    assert all(type(day) is int for day in cut)
    for day, units in cut.items():
        reference = shard_mno_records(radio.get(day, []), service.get(day, []), n_shards)
        assert len(units) == n_shards
        for (radio_rows, service_rows), (radio_ref, service_ref) in zip(units, reference):
            assert events.rows_at(radio_rows) == radio_ref
            assert records.rows_at(service_rows) == service_ref


def test_cutting_needs_one_pool_set_and_a_shard():
    from repro.columnar import ColumnarRadioEvents, ColumnarServiceRecords

    events = ColumnarRadioEvents()
    with pytest.raises(ValueError, match="share one ColumnPools"):
        unit_rows(events, ColumnarServiceRecords(), 2)
    with pytest.raises(ValueError, match="n_shards"):
        shard_rows(events, ColumnarServiceRecords(events.pools), 0)
    assert unit_rows(events, ColumnarServiceRecords(events.pools), 2) == {}
