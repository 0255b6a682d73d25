"""Durable pipeline contract: kill → resume → byte-identical results."""

import pytest

from repro.datasets.io import IngestReport
from repro.faults.crash import tear_day_checkpoint, tear_journal_tail
from repro.parallel.health import TORN_CHECKPOINT
from repro.pipeline import run_pipeline
from repro.runtime import run_durable_pipeline
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
@pytest.mark.parametrize("out_of_core", [False, True])
def test_durable_equals_plain_strict(
    tmp_path, small_eco, small_dataset, plain_result, n_workers, out_of_core
):
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path / "ckpt",
        n_workers=n_workers,
        out_of_core=out_of_core,
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


@pytest.mark.parametrize("out_of_core", [False, True])
def test_lenient_durable_equals_serial(
    tmp_path, small_eco, poisoned_dataset, plain_lenient, out_of_core
):
    result = run_durable_pipeline(
        poisoned_dataset,
        small_eco,
        checkpoint_dir=tmp_path / "ckpt",
        lenient=True,
        n_workers=2,
        out_of_core=out_of_core,
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
