"""The simulator's column stores and the row views over them.

A simulated dataset carries interned column stores behind lazily built
row sequences.  These tests pin the contract the pipeline relies on:
the stores equal interning the rows, counting or running the pipeline
builds no row, the row views behave like the row lists, and replacing a
stream with a list never leaves stale columns behind.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    RowSequence,
    from_record_streams,
)
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.mno.simulator import _time_order
from repro.pipeline import run_pipeline
from repro.service.daemon import catalog_digest
from repro.signaling.cdr import ServiceRecord, ServiceType

CONFIG = MNOConfig(n_devices=60, seed=3)


@pytest.fixture(scope="module")
def world():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


@pytest.fixture(scope="module")
def dataset(world):
    return simulate_mno_dataset(world, CONFIG)


def _columns_of(store):
    return {name: getattr(store, name) for name in type(store).__slots__ if name != "pools"}


def _digests(result):
    classes = sorted(
        (device_id, c.label.value, c.step.value)
        for device_id, c in result.classifications.items()
    )
    return (
        catalog_digest(result.day_records, result.summaries),
        hashlib.sha256(repr(classes).encode("utf-8")).hexdigest(),
    )


def test_columns_equal_interning_the_rows(dataset):
    columns = dataset.columns
    assert columns is not None
    events, records = columns
    expected_events, expected_records = from_record_streams(
        list(dataset.radio_events), list(dataset.service_records)
    )
    assert _columns_of(events) == _columns_of(expected_events)
    assert _columns_of(records) == _columns_of(expected_records)
    assert records.pools is events.pools
    for domain in ("devices", "plmns", "apns"):
        assert getattr(events.pools, domain).strings == (
            getattr(expected_events.pools, domain).strings
        )


def test_counting_and_the_serial_pipeline_build_no_rows(world, monkeypatch):
    fresh = simulate_mno_dataset(world, CONFIG)

    def refuse(self, indices):
        raise AssertionError("a row was built")

    monkeypatch.setattr(ColumnarRadioEvents, "rows_at", refuse)
    monkeypatch.setattr(ColumnarServiceRecords, "rows_at", refuse)
    assert len(fresh.radio_events) == 12_764
    assert len(fresh.service_records) == 7_935
    n_devices = fresh.n_devices
    result = run_pipeline(fresh, world, n_workers=1)
    monkeypatch.undo()

    from_rows = {e.device_id for e in fresh.radio_events}
    from_rows |= {r.device_id for r in fresh.service_records}
    assert n_devices == len(from_rows)
    assert set(result.summaries) == from_rows


def test_row_sequence_behaves_like_the_row_list(dataset):
    events = dataset.radio_events
    assert isinstance(events, RowSequence)
    rows = dataset.columns[0].to_rows()
    assert events[0] == rows[0]
    assert events[-1] == rows[-1]
    assert events[:200] == rows[:200]
    assert isinstance(events[:200], list)
    assert list(events) == rows
    assert events == rows
    assert rows == events
    assert events != rows[:-1]
    extra = rows[0]
    assert events + [extra] == rows + [extra]
    assert [extra] + events == [extra] + rows


def test_rows_are_built_once(dataset):
    first = list(dataset.service_records)
    second = list(dataset.service_records)
    assert len(first) == len(dataset.service_records)
    assert all(a is b for a, b in zip(first, second))


def test_replacing_a_stream_with_a_list_drops_the_columns(world, dataset):
    poison = ServiceRecord(
        device_id="poison-0",
        timestamp=1000.0,
        sim_plmn="26202",
        visited_plmn="20801",
        service=ServiceType.VOICE,
        duration_s=30.0,
    )
    mixed = dataclasses.replace(
        dataset, service_records=dataset.service_records + [poison]
    )
    assert mixed.columns is None
    all_lists = dataclasses.replace(
        dataset,
        radio_events=list(dataset.radio_events),
        service_records=list(dataset.service_records) + [poison],
    )
    result = run_pipeline(mixed, world, lenient=True, n_workers=1)
    assert dict(result.degradation.n_failed_by_stage) == {"summary": 1}
    assert [f.device_id for f in result.degradation.exemplars] == ["poison-0"]
    expected = run_pipeline(all_lists, world, lenient=True, n_workers=1)
    assert _digests(result) == _digests(expected)


def test_replacing_radio_with_its_rows_keeps_the_output(world, dataset):
    replaced = dataclasses.replace(dataset, radio_events=list(dataset.radio_events))
    assert replaced.columns is None
    assert _digests(run_pipeline(replaced, world, n_workers=1)) == _digests(
        run_pipeline(dataset, world, n_workers=1)
    )


@given(hours=st.lists(st.integers(0, 30), max_size=400))
def test_time_order_is_the_stable_argsort(hours):
    """The emitter orders rows with numpy's unstable sort and puts rows
    of equal timestamps back in position order: the stable argsort,
    ties included."""
    timestamps = np.array(hours, dtype=float) * 3600.0
    expected = np.argsort(timestamps, kind="stable")
    assert _time_order(timestamps).tolist() == expected.tolist()

