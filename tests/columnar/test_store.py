"""StringPool and row<->columnar adapter invariants."""

from array import array

import numpy as np
import pytest

from repro.columnar import (
    NULL_ID,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    StringPool,
    from_record_streams,
)
from repro.faults import FaultPlan, inject_radio_events, inject_service_records
from repro.signaling.cdr import data_xdr, voice_cdr
from repro.signaling.events import RADIO_INTERFACES, RadioEvent
from repro.signaling.procedures import MESSAGE_TYPES, RESULT_CODES


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


def _five_row_stores():
    """Five rows per stream over every column typecode, voice and data."""
    events = [
        RadioEvent(
            device_id=f"d{i % 3}",
            timestamp=86400.0 * i + 0.5 * i,
            sim_plmn="23410" if i % 2 else "21407",
            tac=35000000 + i,
            sector_id=-i if i % 2 else 10**12 + i,
            interface=RADIO_INTERFACES[i % len(RADIO_INTERFACES)],
            event_type=MESSAGE_TYPES[i % len(MESSAGE_TYPES)],
            result=RESULT_CODES[i % len(RESULT_CODES)],
        )
        for i in range(5)
    ]
    records = [
        voice_cdr(f"d{i}", 86400.0 * i, "21407", "23410", 3.25 * i)
        if i % 2
        else data_xdr(f"d{i}", 86400.0 * i, "21407", "23410", 2**40 + i, f"apn{i}")
        for i in range(5)
    ]
    return from_record_streams(events, records)


def _gather(column, indices):
    """The element-wise reference gather."""
    return array(column.typecode, [column[i] for i in indices])


SELECT_INDICES = {
    "empty": [],
    "repeated": [2, 2, 0, 2],
    "unsorted": [4, 0, 3, 1],
    "negative": [-1, 0, -5],
    "all": [0, 1, 2, 3, 4],
}


@pytest.mark.parametrize("as_ndarray", [False, True], ids=["list", "ndarray"])
@pytest.mark.parametrize("name", sorted(SELECT_INDICES))
def test_select_equals_the_elementwise_gather(name, as_ndarray):
    indices = SELECT_INDICES[name]
    picked = np.asarray(indices, dtype=np.int64) if as_ndarray else indices
    radio, service = _five_row_stores()
    assert NULL_ID in service.apns  # a voice CDR's absent APN rides along
    for store in (radio, service):
        subset = store.select(picked)
        assert subset.pools is store.pools
        columns = [name for name in type(store).__slots__ if name != "pools"]
        for column in columns:
            expected = _gather(getattr(store, column), indices)
            assert getattr(subset, column) == expected, column
            assert getattr(subset, column).typecode == expected.typecode


@pytest.mark.parametrize("indices", [[5], [0, -6]])
def test_select_out_of_range_raises_index_error(indices):
    for store in _five_row_stores():
        with pytest.raises(IndexError):
            store.select(indices)


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


def test_from_rows_assigns_ids_in_row_order():
    """Filled column by column, the pools still number strings by first
    sight, row by row: a row's SIM before its visited PLMN."""
    records = [
        data_xdr("dev-b", 10.0, "20801", "26202", 512, "iot.example"),
        voice_cdr("dev-a", 20.0, "26202", "23415", 30.0),
        data_xdr("dev-b", 30.0, "23415", "90128", 64, None),
    ]
    store = ColumnarServiceRecords.from_rows(records)
    assert store.pools.devices.strings == ("dev-b", "dev-a")
    assert store.pools.plmns.strings == ("20801", "26202", "23415", "90128")
    assert store.pools.apns.strings == ("iot.example",)
    assert list(store.sim_plmns) == [0, 1, 2]
    assert list(store.visited_plmns) == [1, 2, 3]
    assert list(store.apns) == [0, NULL_ID, NULL_ID]
    assert list(store.days) == [0, 0, 0]
    assert store.to_rows() == records


def test_empty_store_is_valid():
    store = ColumnarRadioEvents.from_rows([])
    assert len(store) == 0
    assert store.to_rows() == []
    with pytest.raises(IndexError):
        store.row(0)
