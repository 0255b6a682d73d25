"""Durable pipeline contract: kill → resume → byte-identical results."""

import pytest

from repro.columnar.store import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
from repro.datasets.io import IngestReport
from repro.faults.crash import tear_day_checkpoint, tear_journal_tail
from repro.parallel.health import TORN_CHECKPOINT
from repro.parallel.sharding import shard_mno_records
from repro.pipeline import quarantine_devices, run_pipeline
from repro.runtime import pack_day_block, run_durable_pipeline
from repro.runtime.checkpoint import JOURNAL_NAME, MANIFEST_NAME, UNITS_DIRNAME
from repro.runtime.run import _day_slices


def assert_same_result(result, baseline):
    assert result.day_records == baseline.day_records
    assert result.summaries == baseline.summaries
    assert list(result.summaries) == list(baseline.summaries)
    assert result.classifications == baseline.classifications
    assert list(result.classifications) == list(baseline.classifications)


@pytest.fixture(scope="module")
def plain_result(small_eco, small_dataset):
    return run_pipeline(small_dataset, small_eco, n_workers=1)


@pytest.fixture(scope="module")
def plain_lenient(small_eco, poisoned_dataset):
    return run_pipeline(poisoned_dataset, small_eco, lenient=True, n_workers=1)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_durable_equals_plain_strict(
    tmp_path, small_eco, small_dataset, plain_result, n_workers
):
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path / "ckpt",
        n_workers=n_workers,
    )
    assert_same_result(result, plain_result)
    assert result.health is not None and result.health.ok


def test_durable_without_persistence_equals_plain(
    small_eco, small_dataset, plain_result
):
    result = run_durable_pipeline(small_dataset, small_eco, checkpoint_dir=None)
    assert_same_result(result, plain_result)


def test_checkpoint_layout_on_disk(tmp_path, small_eco, small_dataset):
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    assert (tmp_path / MANIFEST_NAME).exists()
    assert (tmp_path / JOURNAL_NAME).exists()
    n_days = len(_day_slices(small_dataset))
    units = list((tmp_path / UNITS_DIRNAME).glob("*.ckpt"))
    assert len(units) == n_days * 2  # n_shards follows n_workers


def test_lenient_durable_equals_serial(
    tmp_path, small_eco, poisoned_dataset, plain_lenient
):
    result = run_durable_pipeline(
        poisoned_dataset,
        small_eco,
        checkpoint_dir=tmp_path / "ckpt",
        lenient=True,
        n_workers=2,
    )
    assert_same_result(result, plain_lenient)
    assert "poison-runtime" not in result.summaries
    ours, theirs = result.degradation, plain_lenient.degradation
    assert ours.n_devices_total == theirs.n_devices_total
    assert ours.n_devices_ok == theirs.n_devices_ok
    assert dict(ours.n_failed_by_stage) == dict(theirs.n_failed_by_stage)
    assert [
        (f.device_id, f.stage, f.error) for f in ours.exemplars
    ] == [(f.device_id, f.stage, f.error) for f in theirs.exemplars]


def _unit_bytes(builder, radio, service, lenient):
    """``pack_day_block`` of one unit slice, validated when lenient."""
    if not lenient:
        return pack_day_block(radio, service), 0
    _, _, failures, _ = quarantine_devices(
        builder, *from_record_streams(radio, service)
    )
    bad = {failure.device_id for failure in failures}
    blob = pack_day_block(
        [event for event in radio if event.device_id not in bad],
        [record for record in service if record.device_id not in bad],
        [(f.device_id, f.stage, f.error) for f in failures],
    )
    return blob, len(failures)


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_persisted_units_equal_pack_day_block_of_their_slice(
    tmp_path, small_eco, small_dataset, poisoned_dataset, lenient
):
    dataset = poisoned_dataset if lenient else small_dataset
    run_durable_pipeline(
        dataset, small_eco, checkpoint_dir=tmp_path, lenient=lenient, n_workers=2
    )
    builder = CatalogBuilder(
        dataset.tac_db,
        dataset.sector_catalog,
        RoamingLabeler(small_eco.operators, dataset.observer),
    )
    n_units = n_quarantined = 0
    for day, (radio, service) in _day_slices(dataset).items():
        for shard, (radio_s, service_s) in enumerate(
            shard_mno_records(radio, service, 2)
        ):
            expected, n_failed = _unit_bytes(builder, radio_s, service_s, lenient)
            unit = tmp_path / UNITS_DIRNAME / f"day_{day:03d}.shard_{shard:03d}.ckpt"
            assert unit.read_bytes() == expected, (day, shard)
            n_units += 1
            n_quarantined += n_failed
    assert n_units == len(list((tmp_path / UNITS_DIRNAME).glob("*.ckpt")))
    assert n_quarantined == (1 if lenient else 0)


def test_interrupt_then_resume_is_identical(
    tmp_path, small_eco, small_dataset, plain_result
):
    class Interrupt(RuntimeError):
        pass

    def bomb(day):
        if day == 2:
            raise Interrupt

    with pytest.raises(Interrupt):
        run_durable_pipeline(
            small_dataset,
            small_eco,
            checkpoint_dir=tmp_path,
            n_workers=2,
            on_day=bomb,
        )
    # Resume at a *different* worker count: the recorded shard count is
    # adopted, so completed units stay addressable.
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        n_workers=1,
    )
    assert_same_result(result, plain_result)

    # The journal proves completed units were never re-executed: the
    # first attempt's units and the resume's units are disjoint.
    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore(
        tmp_path, _recorded_fingerprint(tmp_path), n_shards=2, resume=True
    )
    entries = store.journal_entries()
    store.close()
    first = {(e["day"], e["shard"]) for e in entries if e["attempt"] == 0}
    second = {(e["day"], e["shard"]) for e in entries if e["attempt"] == 1}
    assert first and second
    assert not first & second
    assert {day for day, _ in first} == {0, 1, 2}
    assert min(day for day, _ in second) >= 2


def _recorded_fingerprint(directory):
    import json
    from pathlib import Path

    doc = json.loads(
        (Path(directory) / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    return doc["payload"]["fingerprint"]


def test_torn_checkpoint_reexecutes_only_that_unit(
    tmp_path, small_eco, small_dataset, plain_result
):
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    tear_day_checkpoint(tmp_path, day=1, shard=0)
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        n_workers=2,
    )
    assert_same_result(result, plain_result)
    assert result.health.torn_checkpoints == 1
    kinds = [i.kind for i in result.health.incidents]
    assert TORN_CHECKPOINT in kinds

    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore(
        tmp_path, _recorded_fingerprint(tmp_path), n_shards=2, resume=True
    )
    redone = {
        (e["day"], e["shard"])
        for e in store.journal_entries()
        if e["attempt"] == 1
    }
    store.close()
    assert redone == {(1, 0)}


def test_torn_journal_tail_resumes_and_reports(
    tmp_path, small_eco, small_dataset, plain_result
):
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    tear_journal_tail(tmp_path)

    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        n_workers=2,
    )
    assert_same_result(result, plain_result)

    # The discard is loud, not silent: one TORN_CHECKPOINT incident
    # naming the journal, counted alongside torn unit blocks.
    assert result.health.torn_checkpoints == 1
    torn = [i for i in result.health.incidents if i.kind == TORN_CHECKPOINT]
    assert len(torn) == 1
    assert "journal torn tail" in torn[0].detail

    # Exactly the discarded completion re-executed, on a later attempt.
    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore(
        tmp_path, _recorded_fingerprint(tmp_path), n_shards=2, resume=True
    )
    entries = store.journal_entries()
    store.close()
    redone = [e for e in entries if e["attempt"] > 0]
    assert len(redone) == 1
    n_days = len(_day_slices(small_dataset))
    assert len(entries) == n_days * 2  # full coverage restored


def test_day_source_feeds_and_reports(tmp_path, small_eco, small_dataset):
    slices = _day_slices(small_dataset)
    per_day_report = {
        day: IngestReport(path=f"day_{day}", n_rows=10, n_ok=10)
        for day in slices
    }

    def source(day):
        radio, service = slices[day]
        return radio, service, per_day_report[day]

    baseline = run_pipeline(small_dataset, small_eco, lenient=True, n_workers=1)
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        lenient=True,
        day_source=source,
        days=sorted(slices),
    )
    assert_same_result(result, baseline)
    assert result.degradation.ingest is not None
    assert result.degradation.ingest.n_rows == 10 * len(slices)


def test_run_pipeline_dispatches_to_durable(
    tmp_path, small_eco, small_dataset, plain_result
):
    result = run_pipeline(
        small_dataset, small_eco, n_workers=1, checkpoint_dir=tmp_path
    )
    assert_same_result(result, plain_result)
    assert result.health is not None
    assert (tmp_path / MANIFEST_NAME).exists()


def test_resume_requires_checkpoint_dir(small_eco, small_dataset):
    with pytest.raises(ValueError, match="checkpoint_dir"):
        run_pipeline(small_dataset, small_eco, resume=True)
