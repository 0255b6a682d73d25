"""Incremental engine: additive day deltas converge to the full build exactly."""

from collections import defaultdict

import pytest

from repro.columnar import ColumnPools, from_record_streams
from repro.core.catalog import CatalogBuilder
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
        assert update(builder, day, events[day], records[day]) is None
    day_records, summaries = builder.snapshot()
    assert day_records == full_build[0]
    assert list(summaries) == list(full_build[1])
    assert summaries == full_build[1]


def test_second_snapshot_without_update_is_equal(
    small_eco, small_dataset, by_day, full_build
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        update(builder, day, events[day], records[day])
    first = builder.snapshot()
    second = builder.snapshot()
    assert first == second
    assert list(second[1]) == list(first[1])
    assert second[0] == full_build[0]


def test_day_split_into_two_deltas_equals_whole_day(
    small_eco, small_dataset, by_day, full_build
):
    """Either half of a day may arrive first; the snapshot (taken in
    between, too) ends equal to the full build."""
    days, events, records = by_day
    last = days[-1]
    halves = [
        (events[last][0::2], records[last][1::2]),
        (events[last][1::2], records[last][0::2]),
    ]
    for order in (halves, halves[::-1]):
        builder = make_builder(small_eco, small_dataset)
        for day in days[:-1]:
            update(builder, day, events[day], records[day])
        update(builder, last, *order[0])
        builder.snapshot()
        update(builder, last, *order[1])
        day_records, summaries = builder.snapshot()
        assert day_records == full_build[0]
        assert summaries == full_build[1]


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


def test_empty_delta_changes_nothing(small_eco, small_dataset, by_day, full_build):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        update(builder, day, events[day], records[day])
    before = builder.snapshot()
    update(builder, days[-1], [], [])
    update(builder, days[0] - 1, [], [])
    assert builder.snapshot() == before
    assert before[0] == full_build[0]
    assert before[1] == full_build[1]
