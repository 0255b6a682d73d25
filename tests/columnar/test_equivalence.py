"""Column-store contracts of the catalog kernel and the shard layer.

Output equality across execution modes is pinned by the golden digests
in ``tests/test_golden_catalog.py``.
"""

import pytest

from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler


def test_build_from_columns_rejects_mismatched_pools(eco, mno_dataset):
    from repro.columnar import ColumnarRadioEvents, ColumnarServiceRecords

    events = ColumnarRadioEvents.from_rows(mno_dataset.radio_events)
    records = ColumnarServiceRecords.from_rows(mno_dataset.service_records)
    builder = CatalogBuilder(
        mno_dataset.tac_db,
        mno_dataset.sector_catalog,
        RoamingLabeler(eco.operators, mno_dataset.observer),
    )
    with pytest.raises(ValueError):
        builder.build_from_columns(events, records)


def test_shard_columnar_records_partitions_by_device(mno_dataset):
    from repro.parallel import shard_columnar_records

    events, records = from_record_streams(
        mno_dataset.radio_events, mno_dataset.service_records
    )
    shards = shard_columnar_records(events, records, 3)
    assert len(shards) == 3
    assert sum(len(ev) for ev, _ in shards) == len(events)
    assert sum(len(sr) for _, sr in shards) == len(records)
    seen_devices = [
        {ev.pools.devices.lookup(i) for i in ev.device_ids}
        | {sr.pools.devices.lookup(i) for i in sr.device_ids}
        for ev, sr in shards
    ]
    for a in range(len(seen_devices)):
        for b in range(a + 1, len(seen_devices)):
            assert not (seen_devices[a] & seen_devices[b])
    # Shards share the parent's pools: column blocks, not re-encoded rows.
    assert all(ev.pools is events.pools for ev, _ in shards)
