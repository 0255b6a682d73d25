"""Incremental day-update engine: converges to the full rebuild exactly."""

from collections import defaultdict

import pytest

from repro.columnar import ColumnPools, from_record_streams
from repro.core.catalog import CatalogBuilder, CatalogUpdate
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset


@pytest.fixture(scope="module")
def small_eco():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


@pytest.fixture(scope="module")
def small_dataset(small_eco):
    return simulate_mno_dataset(small_eco, MNOConfig(n_devices=120, seed=5))


@pytest.fixture(scope="module")
def by_day(small_dataset):
    events = defaultdict(list)
    records = defaultdict(list)
    for event in small_dataset.radio_events:
        events[event.day].append(event)
    for record in small_dataset.service_records:
        records[record.day].append(record)
    days = sorted(set(events) | set(records))
    return days, events, records


def make_builder(small_eco, small_dataset, compute_mobility=True):
    return CatalogBuilder(
        small_dataset.tac_db,
        small_dataset.sector_catalog,
        RoamingLabeler(small_eco.operators, small_dataset.observer),
        compute_mobility=compute_mobility,
    )


def build(builder, events, records):
    return builder.build_from_columns(*from_record_streams(events, records))


def update(builder, day, events, records):
    return builder.update(day, *from_record_streams(events, records))


@pytest.fixture(scope="module")
def full_build(small_eco, small_dataset):
    return build(
        make_builder(small_eco, small_dataset),
        small_dataset.radio_events,
        small_dataset.service_records,
    )


def test_ascending_replay_converges_to_full_build(
    small_eco, small_dataset, by_day, full_build
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        result = update(builder, day, events[day], records[day])
        assert isinstance(result, CatalogUpdate)
        assert result.day == day
        assert result.n_changed == len(result.changed_devices)
    day_records, summaries = builder.snapshot()
    assert day_records == full_build[0]
    assert list(summaries) == list(full_build[1])
    assert summaries == full_build[1]


def test_resending_identical_day_changes_nothing(
    small_eco, small_dataset, by_day, full_build
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        update(builder, day, events[day], records[day])
    last = days[-1]
    result = update(builder, last, events[last], records[last])
    assert result.n_changed == 0
    assert result.changed_devices == ()
    assert builder.snapshot()[0] == full_build[0]


def test_modified_day_recomputes_only_changed_devices(
    small_eco, small_dataset, by_day
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        update(builder, day, events[day], records[day])
    last = days[-1]
    mutated = [e for i, e in enumerate(events[last]) if i % 7]
    touched = {e.device_id for e in events[last]} | {
        e.device_id for e in mutated
    }
    result = update(builder, last, mutated, records[last])
    assert 0 < result.n_changed <= len(touched)
    assert set(result.changed_devices) <= touched

    # The incremental state now matches a from-scratch build of the
    # mutated streams, records and summaries alike.
    full_events = [e for d in days for e in (mutated if d == last else events[d])]
    full_records = [r for d in days for r in records[d]]
    expected = build(make_builder(small_eco, small_dataset), full_events, full_records)
    day_records, summaries = builder.snapshot()
    assert day_records == expected[0]
    assert summaries == expected[1]


def test_update_accepts_columnar_day_slices(
    small_eco, small_dataset, by_day, full_build
):
    """Day slices interned onto one pool set shared across updates."""
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    pools = ColumnPools()
    for day in days:
        events_c, records_c = from_record_streams(events[day], records[day], pools)
        builder.update(day, events_c, records_c)
    day_records, summaries = builder.snapshot()
    assert day_records == full_build[0]
    assert summaries == full_build[1]


def test_update_rejects_rows_from_another_day(small_eco, small_dataset, by_day):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    with pytest.raises(ValueError):
        update(builder, days[0] + 1, events[days[0]], records[days[0]])


def test_update_rejects_columnar_slices_with_split_pools(
    small_eco, small_dataset, by_day
):
    days, events, records = by_day
    day = days[0]
    events_c, _ = from_record_streams(events[day], [])
    _, records_c = from_record_streams([], records[day])
    builder = make_builder(small_eco, small_dataset)
    with pytest.raises(ValueError):
        builder.update(day, events_c, records_c)


def test_empty_day_update_removes_devices(small_eco, small_dataset, by_day):
    """Re-sending a day as empty retracts that day's contribution."""
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        update(builder, day, events[day], records[day])
    last = days[-1]
    result = update(builder, last, [], [])
    assert result.n_changed > 0
    expected = build(
        make_builder(small_eco, small_dataset),
        [e for d in days[:-1] for e in events[d]],
        [r for d in days[:-1] for r in records[d]],
    )
    day_records, summaries = builder.snapshot()
    assert day_records == expected[0]
    assert summaries == expected[1]
