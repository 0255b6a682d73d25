"""Durable pipeline contract: kill → resume → byte-identical results."""

import dataclasses
from collections import defaultdict

import pytest

from repro.columnar import ColumnarRadioEvents, ColumnarServiceRecords
from repro.columnar.blocks import build_block, read_block
from repro.columnar.store import RowSequence
from repro.datasets.io import IngestReport
from repro.faults.crash import tear_day_checkpoint, tear_journal_tail
from repro.faults.fsfault import EIO_READ, FsFault, FsFaultPlan, install
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.parallel.health import TORN_CHECKPOINT
from repro.parallel.sharding import shard_mno_records, shard_of
from repro.pipeline import run_pipeline
from repro.runtime import CheckpointCorruption, pack_day_block, run_durable_pipeline
from repro.runtime.checkpoint import JOURNAL_NAME, MANIFEST_NAME, UNITS_DIRNAME, StorageAbort
from tests.runtime.test_checkpoint import (
    JOURNAL_LINE_DAMAGE,
    MANIFEST_DAMAGE,
    READER_JOURNAL_DAMAGE,
    READER_MANIFEST_DAMAGE,
    append_journal_line,
    reshape_manifest,
)
from tests.runtime.test_serialize import (
    HEADER_DAMAGE,
    READER_DAMAGE,
    READER_HEADER_DAMAGE,
    VALUE_DAMAGE,
    drop_tacs,
    reframe,
    reheader,
)


def _day_slices(dataset):
    """The row reference for units: each day's rows, stream order kept."""
    radio, service = defaultdict(list), defaultdict(list)
    for event in dataset.radio_events:
        radio[int(event.timestamp // 86400.0)].append(event)
    for record in dataset.service_records:
        service[int(record.timestamp // 86400.0)].append(record)
    return {
        day: (radio.get(day, []), service.get(day, []))
        for day in sorted(set(radio) | set(service))
    }


def _row_list(dataset):
    """The dataset with plain row lists, so the run interns its rows."""
    return dataclasses.replace(
        dataset,
        radio_events=list(dataset.radio_events),
        service_records=list(dataset.service_records),
    )


def assert_same_result(result, baseline):
    assert result.day_records == baseline.day_records
    assert result.summaries == baseline.summaries
    assert list(result.summaries) == list(baseline.summaries)
    assert result.classifications == baseline.classifications
    assert list(result.classifications) == list(baseline.classifications)


def assert_same_degradation(result, baseline):
    ours, theirs = result.degradation, baseline.degradation
    assert ours.n_devices_total == theirs.n_devices_total
    assert ours.n_devices_ok == theirs.n_devices_ok
    assert dict(ours.n_failed_by_stage) == dict(theirs.n_failed_by_stage)
    assert [
        (f.device_id, f.stage, f.error) for f in ours.exemplars
    ] == [(f.device_id, f.stage, f.error) for f in theirs.exemplars]


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
    assert_same_degradation(result, plain_lenient)


@pytest.mark.parametrize("n_shards", [1, 2, 3])
@pytest.mark.parametrize(
    "source, lenient",
    [("simulated", False), ("row-list", False), ("row-list", True)],
    ids=["simulated-strict", "row-list-strict", "row-list-lenient"],
)
def test_persisted_units_equal_pack_day_block_of_their_slice(
    tmp_path, small_eco, small_dataset, poisoned_dataset, source, lenient, n_shards
):
    """Units are the same pure slices in both modes and from either
    source: lenient mode quarantines at the final snapshot, so its units
    keep every row and carry an empty quarantine list, and a unit cut
    from a simulated dataset's stores is byte for byte the interning of
    its rows."""
    if lenient:
        dataset = poisoned_dataset
    else:
        dataset = small_dataset if source == "simulated" else _row_list(small_dataset)
    assert (dataset.columns is not None) == (source == "simulated")
    run_durable_pipeline(
        dataset, small_eco, checkpoint_dir=tmp_path, lenient=lenient, n_workers=n_shards
    )
    slices = _day_slices(dataset)
    n_units = 0
    for day, (radio, service) in slices.items():
        for shard, (radio_s, service_s) in enumerate(
            shard_mno_records(radio, service, n_shards)
        ):
            unit = tmp_path / UNITS_DIRNAME / f"day_{day:03d}.shard_{shard:03d}.ckpt"
            assert unit.read_bytes() == pack_day_block(radio_s, service_s), (day, shard)
            n_units += 1
    assert n_units == len(list((tmp_path / UNITS_DIRNAME).glob("*.ckpt")))
    assert _recorded_fingerprint(tmp_path)["days"] == list(slices)


def test_durable_run_over_columns_builds_no_row(
    tmp_path, small_eco, small_dataset, plain_result, monkeypatch
):
    """A simulated dataset's units are cut from its stores: the run
    builds no row object, and its catalog is the serial run's."""
    events, records = small_dataset.columns
    dataset = dataclasses.replace(
        small_dataset,
        radio_events=RowSequence(events),
        service_records=RowSequence(records),
    )

    def no_rows(self, indices):
        raise AssertionError("a row object was built")

    monkeypatch.setattr(ColumnarRadioEvents, "rows_at", no_rows)
    monkeypatch.setattr(ColumnarServiceRecords, "rows_at", no_rows)
    result = run_durable_pipeline(dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2)
    monkeypatch.undo()
    assert_same_result(result, plain_result)


def test_unit_left_by_the_per_unit_validator_is_rebuilt(
    tmp_path, small_eco, poisoned_dataset, plain_lenient
):
    """A journaled unit that lists a quarantined device and leaves out
    its rows (what per-unit lenient validation used to write) is rebuilt
    from the source on resume, with one torn-checkpoint incident."""
    run_durable_pipeline(
        poisoned_dataset, small_eco, checkpoint_dir=tmp_path, lenient=True, n_workers=2
    )
    poison = "poison-runtime"
    shard = shard_of(poison, 2)
    radio, service = shard_mno_records(*_day_slices(poisoned_dataset)[0], 2)[shard]
    (failure,) = plain_lenient.degradation.exemplars
    unit = tmp_path / UNITS_DIRNAME / f"day_000.shard_{shard:03d}.ckpt"
    header, body, offset = read_block(
        pack_day_block(
            [event for event in radio if event.device_id != poison],
            [record for record in service if record.device_id != poison],
        )
    )
    header["quarantine"] = [[poison, failure.stage, failure.error]]
    unit.write_bytes(build_block(header, [body[offset:]]))

    result = run_durable_pipeline(
        poisoned_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        lenient=True,
        n_workers=2,
    )
    assert_same_result(result, plain_lenient)
    assert_same_degradation(result, plain_lenient)
    assert result.health.count(TORN_CHECKPOINT) == 1
    torn = [i for i in result.health.incidents if i.kind == TORN_CHECKPOINT]
    assert len(torn) == 1 and "quarantined" in torn[0].detail

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
    assert redone == {(0, shard)}


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
    assert result.health.count(TORN_CHECKPOINT) == 1
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


def test_unit_with_another_column_layout_is_rebuilt_on_resume(
    tmp_path, small_eco, small_dataset, plain_result
):
    """A CRC-valid unit whose header lists another column layout (here
    one column short) is a torn checkpoint: rebuilt, not folded."""
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    unit.write_bytes(reframe(unit.read_bytes(), drop_tacs))
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        n_workers=2,
    )
    assert_same_result(result, plain_result)
    assert result.health.count(TORN_CHECKPOINT) == 1
    torn = [i for i in result.health.incidents if i.kind == TORN_CHECKPOINT]
    assert len(torn) == 1 and "column layout" in torn[0].detail


@pytest.mark.parametrize("damage", READER_DAMAGE)
def test_unit_whose_rows_do_not_decode_is_rebuilt_on_resume(
    tmp_path, small_eco, small_dataset, plain_result, damage
):
    """A CRC-valid unit in the stores' layout whose rows no store holds
    (device ids past its pool raised IndexError on resume) is a torn
    checkpoint: rebuilt, not folded."""
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    edit, words = VALUE_DAMAGE[damage]
    unit.write_bytes(reframe(unit.read_bytes(), edit))
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        n_workers=2,
    )
    assert_same_result(result, plain_result)
    assert result.health.count(TORN_CHECKPOINT) == 1
    torn = [i for i in result.health.incidents if i.kind == TORN_CHECKPOINT]
    assert len(torn) == 1 and words in torn[0].detail


def test_unit_whose_header_has_another_shape_is_rebuilt_on_resume(
    tmp_path, small_eco, small_dataset, plain_result
):
    """A CRC-valid unit whose header lacks its pools (KeyError on
    resume) is a torn checkpoint: rebuilt, not folded."""
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    unit.write_bytes(reheader(unit.read_bytes(), HEADER_DAMAGE[READER_HEADER_DAMAGE]))
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=tmp_path,
        resume=True,
        n_workers=2,
    )
    assert_same_result(result, plain_result)
    assert result.health.count(TORN_CHECKPOINT) == 1
    torn = [i for i in result.health.incidents if i.kind == TORN_CHECKPOINT]
    assert len(torn) == 1 and "'pools'" in torn[0].detail


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
    assert result.health.count(TORN_CHECKPOINT) == 1
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


@pytest.mark.parametrize("damage", READER_JOURNAL_DAMAGE)
def test_journal_line_of_another_shape_resumes_as_a_torn_tail(
    tmp_path, small_eco, small_dataset, plain_result, damage
):
    """A CRC-valid journal line without an integer day, shard and
    attempt is a torn tail on resume, reported like a CRC mismatch."""
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    append_journal_line(tmp_path, JOURNAL_LINE_DAMAGE[damage])
    result = run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, resume=True, n_workers=2
    )
    assert_same_result(result, plain_result)
    torn = [i for i in result.health.incidents if i.kind == TORN_CHECKPOINT]
    assert len(torn) == 1 and "journal torn tail: 1 line(s)" in torn[0].detail


@pytest.mark.parametrize("damage", READER_MANIFEST_DAMAGE)
def test_manifest_of_another_shape_refuses_resume(tmp_path, small_eco, small_dataset, damage):
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    reshape_manifest(tmp_path, MANIFEST_DAMAGE[damage])
    with pytest.raises(CheckpointCorruption, match="n_shards"):
        run_durable_pipeline(
            small_dataset, small_eco, checkpoint_dir=tmp_path, resume=True, n_workers=2
        )


def test_unreadable_journal_aborts_resume_typed(tmp_path, small_eco, small_dataset):
    """The journal is read through the I/O seam: a read fault on it
    aborts the resume typed, like any other storage fault on open."""
    run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path, n_workers=2
    )
    plan = FsFaultPlan(faults=(FsFault(EIO_READ, match=JOURNAL_NAME),))
    with install(plan) as injector, pytest.raises(StorageAbort):
        run_durable_pipeline(
            small_dataset, small_eco, checkpoint_dir=tmp_path, resume=True, n_workers=2
        )
    assert injector.fired == [(EIO_READ, JOURNAL_NAME, JOURNAL_NAME)]


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


class _Interrupt(RuntimeError):
    pass


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_day_source_rows_stamped_on_other_days_are_folded_on_them(
    tmp_path, small_eco, small_dataset, lenient
):
    """A partition can hold rows of a neighbouring day: day 1's source
    returns day 2's first radio row and day 2's source day 1's last
    service row.  Each unit stays journaled under its source day, and
    its rows are folded on the days they carry, so the catalog is the
    serial run's over the same rows, also after a kill after day 1 and
    a resume that loads day 1's unit back."""
    slices = _day_slices(small_dataset)
    early, late = slices[2][0][0], slices[1][1][-1]
    moved = {
        1: (slices[1][0] + [early], slices[1][1][:-1]),
        2: (slices[2][0][1:], slices[2][1] + [late]),
    }

    def source(day):
        radio, service = moved.get(day, slices[day])
        return radio, service, None

    def bomb(day):
        if day == 1:
            raise _Interrupt

    baseline = run_pipeline(small_dataset, small_eco, lenient=lenient, n_workers=1)
    kwargs = dict(lenient=lenient, n_workers=2, day_source=source, days=sorted(slices))
    result = run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path / "whole", **kwargs
    )
    assert_same_result(result, baseline)

    with pytest.raises(_Interrupt):
        run_durable_pipeline(
            small_dataset, small_eco, checkpoint_dir=tmp_path / "killed", on_day=bomb, **kwargs
        )
    resumed = run_durable_pipeline(
        small_dataset, small_eco, checkpoint_dir=tmp_path / "killed", resume=True, **kwargs
    )
    assert_same_result(resumed, baseline)


def test_durable_run_over_a_day_near_the_int64_limit(tmp_path, small_eco):
    """Units are keyed by ``(day, shard)`` without the product ``day *
    n_shards`` (which wrapped past ``INT64_MAX // n_shards``), and the
    fold's day column is int64: a row on day 8,101,851,851,851,852,800
    runs, and kills after day 1 resume, to the serial run's catalog."""
    dataset = _row_list(simulate_mno_dataset(small_eco, MNOConfig(n_devices=20, seed=3)))
    far = dataclasses.replace(dataset.radio_events[0], timestamp=7.0e23)
    assert far.day == 8_101_851_851_851_852_800
    dataset.radio_events.append(far)

    def bomb(day):
        if day == 1:
            raise _Interrupt

    baseline = run_pipeline(dataset, small_eco, n_workers=1)
    result = run_durable_pipeline(
        dataset, small_eco, checkpoint_dir=tmp_path / "whole", n_workers=2
    )
    assert_same_result(result, baseline)
    with pytest.raises(_Interrupt):
        run_durable_pipeline(
            dataset, small_eco, checkpoint_dir=tmp_path / "killed", n_workers=2, on_day=bomb
        )
    resumed = run_durable_pipeline(
        dataset, small_eco, checkpoint_dir=tmp_path / "killed", n_workers=2, resume=True
    )
    assert_same_result(resumed, baseline)


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
