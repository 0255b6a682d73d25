"""Per-device quarantine in run_pipeline's lenient mode."""

import dataclasses

import pytest

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.pipeline import MAX_EXEMPLAR_FAILURES, run_pipeline
from repro.runtime import run_durable_pipeline
from repro.service import catalog_digest
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
    """The per-device record step raising for one device quarantines
    exactly that device at the "catalog" stage, with the same exemplar
    in every lenient mode."""
    import multiprocessing

    from repro.core.catalog import CatalogBuilder

    kwargs = dict(CATALOG_STAGE_MODES[mode])
    if kwargs["n_workers"] > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched builder only when forked")
    if kwargs.pop("checkpoint_dir", False):
        kwargs["checkpoint_dir"] = tmp_path / "ckpt"
    victim = sorted({event.device_id for event in mno_dataset.radio_events})[3]
    original = CatalogBuilder._device_records

    def failing_for_victim(self, device_id, *args):
        if device_id == victim:
            raise RuntimeError(f"catalog stage down for {victim}")
        return original(self, device_id, *args)

    monkeypatch.setattr(CatalogBuilder, "_device_records", failing_for_victim)
    result = run_pipeline(mno_dataset, eco, lenient=True, **kwargs)
    report = result.degradation
    assert dict(report.n_failed_by_stage) == {"catalog": 1}
    assert [(f.device_id, f.stage, f.error) for f in report.exemplars] == [
        (victim, "catalog", f"RuntimeError: catalog stage down for {victim}")
    ]
    assert victim not in result.summaries
    assert victim not in result.classifications
    assert all(r.device_id != victim for r in result.day_records)


# -- quarantine is decided over the whole window ------------------------------

@pytest.fixture(scope="module")
def arriving_world():
    """A small world plus ``arriving``: on day 0 it is seen only through
    a partner CDR with a foreign SIM, which alone labels as the
    unobservable I:A; a home-network radio event on day 1 makes it an
    inbound roamer (I:H) over the whole window."""
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))
    dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=40, seed=3))
    arrival = dataclasses.replace(
        dataset.radio_events[0],
        device_id="arriving",
        sim_plmn="26202",
        timestamp=87400.0,
    )
    return eco, dataclasses.replace(
        dataset,
        radio_events=[*dataset.radio_events, arrival],
        service_records=[*dataset.service_records, poison_record("arriving")],
    )


def run_in_mode(mode, tmp_path, dataset, eco, lenient):
    if mode == "durable-no-store":
        return run_durable_pipeline(dataset, eco, None, lenient=lenient)
    kwargs = {"n_workers": 1 if mode == "serial" else 2}
    if mode == "durable":
        kwargs["checkpoint_dir"] = tmp_path / ("lenient" if lenient else "strict")
    return run_pipeline(dataset, eco, lenient=lenient, **kwargs)


@pytest.mark.parametrize("mode", ["serial", "sharded", "durable", "durable-no-store"])
def test_device_unlabelable_on_its_first_day_is_kept(tmp_path, arriving_world, mode):
    """Quarantine looks at a device's whole window in every mode, so a
    device whose first day alone cannot be labelled is kept."""
    eco, dataset = arriving_world
    strict = run_in_mode(mode, tmp_path, dataset, eco, lenient=False)
    lenient = run_in_mode(mode, tmp_path, dataset, eco, lenient=True)
    for result in (strict, lenient):
        assert str(result.summaries["arriving"].label) == "I:H"
    assert lenient.degradation.ok
    assert catalog_digest(lenient.day_records, lenient.summaries) == catalog_digest(
        strict.day_records, strict.summaries
    )
