"""StringPool and row<->columnar adapter invariants."""

import pytest

from repro.columnar import (
    NULL_ID,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    StringPool,
    from_record_streams,
)
from repro.faults import FaultPlan, inject_radio_events, inject_service_records


# -- StringPool --------------------------------------------------------------

def test_intern_is_idempotent_and_dense():
    pool = StringPool()
    a = pool.intern("26202")
    b = pool.intern("20801")
    assert (a, b) == (0, 1)  # first-seen order, dense ids
    assert pool.intern("26202") == a  # same string, same id
    assert len(pool) == 2
    assert pool.id_of("20801") == b
    assert "26202" in pool and "90128" not in pool


def test_intern_optional_maps_none_to_null_id():
    pool = StringPool()
    assert pool.intern_optional(None) == NULL_ID
    assert pool.lookup_optional(NULL_ID) is None
    some = pool.intern_optional("iot.apn")
    assert pool.lookup_optional(some) == "iot.apn"


def test_lookup_round_trips_every_id():
    pool = StringPool()
    vocab = [f"dev-{i:03d}" for i in range(50)]
    ids = [pool.intern(text) for text in vocab]
    assert [pool.lookup(i) for i in ids] == vocab
    assert pool.strings == tuple(vocab)


# -- adapters ----------------------------------------------------------------

def test_radio_round_trip(mno_dataset):
    store = ColumnarRadioEvents.from_rows(mno_dataset.radio_events)
    assert len(store) == len(mno_dataset.radio_events)
    assert store.to_rows() == list(mno_dataset.radio_events)
    assert store.row(0) == mno_dataset.radio_events[0]
    assert list(store.iter_rows()) == list(mno_dataset.radio_events)


def test_service_round_trip(mno_dataset):
    store = ColumnarServiceRecords.from_rows(mno_dataset.service_records)
    assert len(store) == len(mno_dataset.service_records)
    assert store.to_rows() == list(mno_dataset.service_records)
    # Voice CDRs carry no APN: encoded as NULL_ID, decoded back to None.
    voice_idx = next(
        i for i, r in enumerate(mno_dataset.service_records) if r.apn is None
    )
    assert store.apns[voice_idx] == NULL_ID
    assert store.row(voice_idx).apn is None


def test_from_record_streams_shares_one_pool_set(mno_dataset):
    events, records = from_record_streams(
        mno_dataset.radio_events, mno_dataset.service_records
    )
    assert events.pools is records.pools
    assert events.to_rows() == list(mno_dataset.radio_events)
    assert records.to_rows() == list(mno_dataset.service_records)


def test_round_trip_survives_injected_faults(mno_dataset):
    """Dropped/duplicated/reordered streams still round-trip exactly."""
    plan = FaultPlan(seed=3, drop_rate=0.02, duplicate_rate=0.01, reorder_rate=0.02)
    faulted_events, _ = inject_radio_events(mno_dataset.radio_events, plan)
    faulted_records, _ = inject_service_records(mno_dataset.service_records, plan)
    events, records = from_record_streams(faulted_events, faulted_records)
    assert events.to_rows() == list(faulted_events)
    assert records.to_rows() == list(faulted_records)


def test_select_shares_pools_and_preserves_rows(mno_dataset):
    store = ColumnarRadioEvents.from_rows(mno_dataset.radio_events)
    indices = list(range(0, len(store), 3))
    subset = store.select(indices)
    assert subset.pools is store.pools
    assert subset.to_rows() == store.rows_at(indices)
    assert len(subset) == len(indices)


def test_columnar_stores_are_smaller_than_rows(mno_dataset):
    """The point of the exercise: column blocks beat dataclass rows."""
    import sys

    events, records = from_record_streams(
        mno_dataset.radio_events, mno_dataset.service_records
    )
    # getsizeof on a slotted dataclass counts only the shell, not the
    # field payloads; add the per-row timestamp float box (always a
    # distinct object) for a still-conservative row-side floor.
    row_floor = sum(
        sys.getsizeof(e) + sys.getsizeof(e.timestamp)
        for e in mno_dataset.radio_events
    ) + sum(
        sys.getsizeof(r) + sys.getsizeof(r.timestamp)
        for r in mno_dataset.service_records
    )
    assert events.nbytes + records.nbytes < row_floor


def test_day_column_matches_row_day(mno_dataset):
    store = ColumnarRadioEvents.from_rows(mno_dataset.radio_events[:200])
    for i, event in enumerate(mno_dataset.radio_events[:200]):
        assert store.days[i] == event.day


def test_empty_store_is_valid():
    store = ColumnarRadioEvents.from_rows([])
    assert len(store) == 0
    assert store.to_rows() == []
    with pytest.raises(IndexError):
        store.row(0)
