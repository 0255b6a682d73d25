"""Per-device quarantine in run_pipeline's lenient mode."""

import dataclasses

import pytest

from repro.pipeline import MAX_EXEMPLAR_FAILURES, run_pipeline
from repro.signaling.cdr import ServiceRecord, ServiceType


def poison_record(device_id, timestamp=1000.0):
    """A device seen only via a foreign CDR with a foreign SIM.

    Its roaming label would be I:A (foreign SIM on a foreign network),
    which the labeler rejects as unobservable — the catalog's summarize
    stage raises for exactly this device.
    """
    return ServiceRecord(
        device_id=device_id,
        timestamp=timestamp,
        sim_plmn="26202",
        visited_plmn="20801",
        service=ServiceType.VOICE,
        duration_s=30.0,
    )


def with_poison(dataset, n=1):
    extra = [poison_record(f"poison-{i}", 1000.0 + i) for i in range(n)]
    return dataclasses.replace(
        dataset, service_records=dataset.service_records + extra
    )


def test_strict_mode_still_raises(eco, mno_dataset):
    with pytest.raises(ValueError):
        run_pipeline(with_poison(mno_dataset), eco)


def test_lenient_quarantines_the_poison_device(eco, mno_dataset):
    result = run_pipeline(with_poison(mno_dataset), eco, lenient=True)
    report = result.degradation
    assert report is not None
    assert report.n_failed_by_stage == {"summary": 1}
    assert report.n_devices_failed == 1
    assert 0.0 < report.coverage < 1.0
    assert not report.ok
    assert "poison-0" not in result.summaries
    assert "poison-0" not in result.classifications
    assert report.exemplars[0].device_id == "poison-0"
    assert "I:A" in report.exemplars[0].error


def test_lenient_matches_strict_on_clean_data(eco, mno_dataset):
    strict = run_pipeline(mno_dataset, eco)
    lenient = run_pipeline(mno_dataset, eco, lenient=True)
    assert strict.degradation is None
    assert lenient.degradation is not None
    assert lenient.degradation.ok
    assert lenient.degradation.coverage == 1.0
    assert lenient.day_records == strict.day_records
    assert lenient.summaries == strict.summaries
    assert lenient.classifications == strict.classifications


def test_survivors_are_unaffected_by_the_poison(eco, mno_dataset):
    clean = run_pipeline(mno_dataset, eco, lenient=True)
    dirty = run_pipeline(with_poison(mno_dataset), eco, lenient=True)
    assert dirty.summaries == clean.summaries
    assert dirty.classifications == clean.classifications


def test_exemplars_are_capped_but_counts_are_not(eco, mno_dataset):
    n_poison = MAX_EXEMPLAR_FAILURES + 3
    result = run_pipeline(with_poison(mno_dataset, n=n_poison), eco, lenient=True)
    report = result.degradation
    assert report.n_failed_by_stage == {"summary": n_poison}
    assert len(report.exemplars) == MAX_EXEMPLAR_FAILURES


def test_degradation_accounting_sums(eco, mno_dataset):
    result = run_pipeline(with_poison(mno_dataset, n=2), eco, lenient=True)
    report = result.degradation
    assert report.n_devices_ok + report.n_devices_failed == report.n_devices_total
    assert report.n_devices_ok == len(result.classifications)


# -- the "catalog" quarantine stage -------------------------------------------

#: mode -> run_pipeline keyword arguments (durable: a checkpoint directory).
CATALOG_STAGE_MODES = {
    "serial": {"n_workers": 1},
    "sharded": {"n_workers": 2},
    "durable": {"n_workers": 2, "checkpoint_dir": True},
}


@pytest.mark.parametrize("mode", sorted(CATALOG_STAGE_MODES))
def test_catalog_stage_failure_quarantines_one_device(
    tmp_path, monkeypatch, eco, mno_dataset, mode
):
    """``build_day_records`` raising for one device quarantines exactly
    that device at the "catalog" stage, with the same exemplar in every
    lenient mode."""
    import multiprocessing

    from repro.core.catalog import CatalogBuilder

    kwargs = dict(CATALOG_STAGE_MODES[mode])
    if kwargs["n_workers"] > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched builder only when forked")
    if kwargs.pop("checkpoint_dir", False):
        kwargs["checkpoint_dir"] = tmp_path / "ckpt"
    victim = sorted({event.device_id for event in mno_dataset.radio_events})[3]
    original = CatalogBuilder.build_day_records

    def failing_for_victim(self, radio_events, service_records):
        names = {
            radio_events.pools.devices.lookup(dev)
            for dev in (*radio_events.device_ids, *service_records.device_ids)
        }
        if victim in names:
            raise RuntimeError(f"catalog stage down for {victim}")
        return original(self, radio_events, service_records)

    monkeypatch.setattr(CatalogBuilder, "build_day_records", failing_for_victim)
    result = run_pipeline(mno_dataset, eco, lenient=True, **kwargs)
    report = result.degradation
    assert dict(report.n_failed_by_stage) == {"catalog": 1}
    assert [(f.device_id, f.stage, f.error) for f in report.exemplars] == [
        (victim, "catalog", f"RuntimeError: catalog stage down for {victim}")
    ]
    assert victim not in result.summaries
    assert victim not in result.classifications
    assert all(r.device_id != victim for r in result.day_records)
