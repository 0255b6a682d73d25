"""Sharded pipeline output must be byte-identical to serial, any workers."""

import dataclasses

import pytest

from repro.faults import FaultPlan, inject_radio_events, inject_service_records
from repro.pipeline import MAX_EXEMPLAR_FAILURES, run_pipeline
from repro.signaling.cdr import ServiceRecord, ServiceType


def assert_identical_results(serial, sharded):
    """Full equality including container iteration order."""
    assert sharded.day_records == serial.day_records
    assert list(sharded.summaries) == list(serial.summaries)
    assert sharded.summaries == serial.summaries
    assert list(sharded.classifications) == list(serial.classifications)
    assert sharded.classifications == serial.classifications


@pytest.mark.parametrize("n_workers", [2, 4])
def test_strict_sharded_equals_serial(eco, mno_dataset, pipeline, n_workers):
    sharded = run_pipeline(mno_dataset, eco, n_workers=n_workers)
    assert_identical_results(pipeline, sharded)
    assert sharded.degradation is None


def poison_record(device_id, timestamp=1000.0):
    """Foreign SIM seen only on a foreign network: unobservable (I:A),
    the summarize stage raises for exactly this device."""
    return ServiceRecord(
        device_id=device_id,
        timestamp=timestamp,
        sim_plmn="26202",
        visited_plmn="20801",
        service=ServiceType.VOICE,
        duration_s=30.0,
    )


@pytest.fixture(scope="module")
def faulted_dataset(mno_dataset):
    """The session dataset through stream faults, plus poison devices."""
    plan = FaultPlan(seed=3, drop_rate=0.02, duplicate_rate=0.01, reorder_rate=0.02)
    events, _ = inject_radio_events(mno_dataset.radio_events, plan)
    records, _ = inject_service_records(mno_dataset.service_records, plan)
    extra = [poison_record(f"poison-{i:02d}", 1000.0 + i) for i in range(14)]
    return dataclasses.replace(
        mno_dataset, radio_events=events, service_records=list(records) + extra
    )


@pytest.mark.parametrize("n_workers", [2, 4])
def test_lenient_sharded_equals_serial(eco, faulted_dataset, n_workers):
    serial = run_pipeline(faulted_dataset, eco, lenient=True)
    sharded = run_pipeline(faulted_dataset, eco, lenient=True, n_workers=n_workers)
    assert_identical_results(serial, sharded)

    ds, bs = sharded.degradation, serial.degradation
    assert ds.n_devices_total == bs.n_devices_total
    assert ds.n_devices_ok == bs.n_devices_ok
    assert ds.n_failed_by_stage == bs.n_failed_by_stage
    assert ds.exemplars == bs.exemplars
    assert ds.classifier_fallback == bs.classifier_fallback
    # The poison devices all failed, and the exemplar list stayed capped.
    assert ds.n_failed_by_stage["summary"] == 14
    assert len(ds.exemplars) == MAX_EXEMPLAR_FAILURES


def test_n_workers_validation(eco, mno_dataset):
    with pytest.raises(ValueError):
        run_pipeline(mno_dataset, eco, n_workers=0)
