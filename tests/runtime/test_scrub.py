"""At-rest scrubbing: classify torn/rotted/missing units, heal, converge."""

import json
import shutil

import pytest

from repro.columnar import from_record_streams
from repro.columnar.blocks import pack_day_block
from repro.faults.fsfault import EIO_READ, FsFault, FsFaultPlan, install
from repro.parallel.sharding import shard_of
from repro.pipeline import run_pipeline
from repro.runtime import run_durable_pipeline
from repro.runtime.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    UNITS_DIRNAME,
    CheckpointError,
)
from repro.runtime.scrub import (
    DAMAGE_BIT_ROT,
    DAMAGE_MISSING,
    DAMAGE_READ_ERROR,
    DAMAGE_TORN_TAIL,
    recompute_from_dataset,
    scrub_store,
)
from repro.service.wal import BatchLog
from tests.runtime.test_checkpoint import (
    JOURNAL_LINE_DAMAGE,
    MANIFEST_DAMAGE,
    READER_JOURNAL_DAMAGE,
    READER_MANIFEST_DAMAGE,
    append_journal_line,
    reshape_manifest,
)
from tests.runtime.test_durable_run import _row_list, assert_same_result
from tests.runtime.test_serialize import (
    HEADER_DAMAGE,
    READER_DAMAGE,
    READER_HEADER_DAMAGE,
    VALUE_DAMAGE,
    drop_tacs,
    legacy_unit,
    reframe,
    reheader,
)
from tests.test_golden_catalog import observe

N_SHARDS = 2


@pytest.fixture(scope="module")
def baseline(small_eco, small_dataset):
    return run_pipeline(small_dataset, small_eco, n_workers=1)


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory, small_eco, small_dataset):
    """One completed durable run; tests copy it rather than re-running."""
    root = tmp_path_factory.mktemp("scrub") / "ckpt"
    run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=root,
        n_workers=N_SHARDS,
    )
    return root


@pytest.fixture
def store(pristine_store, tmp_path):
    copy = tmp_path / "ckpt"
    shutil.copytree(pristine_store, copy)
    return copy


def unit_paths(store):
    return sorted((store / UNITS_DIRNAME).glob("*.ckpt"))


def flip_byte(path, offset=-30):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def test_clean_store_scrubs_healthy(store):
    report = scrub_store(store)
    assert report.ok and report.healthy_after_scrub
    assert report.n_journaled_units > 0
    assert report.n_verified_ok == report.n_journaled_units
    assert report.damaged == []
    assert "healthy" in report.format()


def test_scrub_refuses_a_non_store_directory(tmp_path):
    with pytest.raises(CheckpointError, match="not a store"):
        scrub_store(tmp_path)


def test_torn_tail_classified(store):
    victim = unit_paths(store)[0]
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_TORN_TAIL]
    assert not report.ok
    assert report.n_verified_ok == report.n_journaled_units - 1


def test_bit_rot_classified(store):
    flip_byte(unit_paths(store)[1])
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_BIT_ROT]


def test_unit_with_another_column_layout_classified_bit_rot(store):
    victim = unit_paths(store)[1]
    victim.write_bytes(reframe(victim.read_bytes(), drop_tacs))
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_BIT_ROT]
    assert "column layout" in report.damaged[0].detail


@pytest.mark.parametrize("damage", READER_DAMAGE)
def test_unit_whose_rows_do_not_decode_classified_bit_rot(store, damage):
    victim = unit_paths(store)[1]
    edit, words = VALUE_DAMAGE[damage]
    victim.write_bytes(reframe(victim.read_bytes(), edit))
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_BIT_ROT]
    assert words in report.damaged[0].detail


def test_unit_whose_header_has_another_shape_classified_bit_rot(store):
    victim = unit_paths(store)[1]
    victim.write_bytes(reheader(victim.read_bytes(), HEADER_DAMAGE[READER_HEADER_DAMAGE]))
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_BIT_ROT]
    # The decoder's own refusal, not an error escaping it.
    assert report.damaged[0].detail.startswith("CheckpointCorruption: ")
    assert "'pools'" in report.damaged[0].detail


def test_unit_that_lists_quarantined_devices_classified_bit_rot(store):
    """A unit whose header lists quarantined devices leaves their rows
    out; no store writes one, so it is rot, not a unit to keep."""
    victim = unit_paths(store)[1]
    victim.write_bytes(legacy_unit(victim.read_bytes()))
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_BIT_ROT]
    assert "quarantined" in report.damaged[0].detail


def test_missing_unit_classified(store):
    unit_paths(store)[2].unlink()
    report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_MISSING]


def test_read_error_classified_not_raised(store):
    victim = unit_paths(store)[0]
    plan = FsFaultPlan(faults=(FsFault(EIO_READ, match=victim.name, times=-1),))
    with install(plan):
        report = scrub_store(store)
    assert [u.damage for u in report.damaged] == [DAMAGE_READ_ERROR]
    assert "injected" in report.damaged[0].detail


def test_corrupt_manifest_reported_walk_continues(store):
    (store / MANIFEST_NAME).write_text("not json", encoding="utf-8")
    report = scrub_store(store)
    assert report.manifest_error
    assert not report.ok and not report.healthy_after_scrub
    # Units are self-validating; the walk still verified all of them.
    assert report.n_verified_ok == report.n_journaled_units > 0


def test_stray_tmp_counted_and_swept_on_repair(store):
    stray = store / UNITS_DIRNAME / "day_000.shard_000.ckpt.tmp"
    stray.write_bytes(b"staged then abandoned")
    assert scrub_store(store).n_stray_tmp == 1
    report = scrub_store(store, repair=True)
    assert report.n_stray_tmp == 1
    assert not stray.exists()
    assert scrub_store(store).ok


def test_torn_journal_tail_counted_and_truncated_on_repair(store):
    journal = store / JOURNAL_NAME
    journal.write_bytes(journal.read_bytes() + b'{"day": 9, "sh')
    assert scrub_store(store).n_torn_journal_lines == 1
    report = scrub_store(store, repair=True)
    assert report.n_torn_journal_lines == 1 and report.healthy_after_scrub
    after = scrub_store(store)
    assert after.ok and after.n_verified_ok == report.n_verified_ok


@pytest.mark.parametrize("damage", READER_JOURNAL_DAMAGE)
def test_journal_line_of_another_shape_counted_torn(store, damage):
    append_journal_line(store, JOURNAL_LINE_DAMAGE[damage])
    report = scrub_store(store)
    assert report.n_torn_journal_lines == 1
    assert report.n_verified_ok == report.n_journaled_units > 0
    assert scrub_store(store, repair=True).healthy_after_scrub
    assert scrub_store(store).ok


@pytest.mark.parametrize("damage", READER_MANIFEST_DAMAGE)
def test_manifest_of_another_shape_reported_walk_continues(store, damage):
    reshape_manifest(store, MANIFEST_DAMAGE[damage])
    report = scrub_store(store)
    assert "n_shards" in report.manifest_error
    assert not report.ok and not report.healthy_after_scrub
    assert report.n_verified_ok == report.n_journaled_units > 0


def test_repair_recomputes_byte_identical_units(store, small_dataset):
    """From a simulated dataset's stores or a row-list dataset's rows,
    the recompute rebuilds what the run wrote."""
    victims = unit_paths(store)[:3]
    originals = [v.read_bytes() for v in victims]
    for dataset in (small_dataset, _row_list(small_dataset)):
        flip_byte(victims[0])
        victims[1].write_bytes(originals[1][:10])
        victims[2].unlink()
        report = scrub_store(
            store, repair=True, recompute=recompute_from_dataset(dataset)
        )
        assert report.n_recomputed == 3 and report.n_marked_for_rerun == 0
        assert report.healthy_after_scrub
        # Units are pure: the rebuilt blocks match the originals byte for byte.
        assert [v.read_bytes() for v in victims] == originals
        assert scrub_store(store).ok


def test_recompute_rebuilds_every_unit_at_any_shard_count(
    tmp_path, small_eco, small_dataset
):
    """Each shard count is cut once; every unit of a store, empty ones
    included, is rebuilt byte for byte."""
    recompute = recompute_from_dataset(small_dataset)
    for n_shards in (1, 3):
        ckpt = tmp_path / f"ckpt-{n_shards}"
        run_durable_pipeline(
            small_dataset, small_eco, checkpoint_dir=ckpt, n_workers=n_shards
        )
        units = unit_paths(ckpt)
        assert len(units) == n_shards * small_dataset.window_days
        for path in units:
            day, shard = (int(part.split("_")[1]) for part in path.stem.split("."))
            assert recompute(day, shard, n_shards) == path.read_bytes(), path.name
    # A day without rows is an empty unit.
    assert recompute(10_000, 0, 3) == pack_day_block([], [])


def test_repair_verifies_recomputed_bytes(store):
    """A recompute that returns garbage is rejected, not installed."""
    victim = unit_paths(store)[0]
    flip_byte(victim)
    report = scrub_store(store, repair=True, recompute=lambda d, s, n: b"junk")
    assert report.n_recomputed == 0 and report.n_marked_for_rerun == 1
    assert not victim.exists()


def test_marked_for_rerun_converges_on_resume(
    store, small_eco, small_dataset, baseline
):
    flip_byte(unit_paths(store)[0])
    unit_paths(store)[3].unlink()
    report = scrub_store(store, repair=True)
    assert report.n_marked_for_rerun == 2
    assert report.healthy_after_scrub  # nothing unresolved remains
    result = run_durable_pipeline(
        small_dataset,
        small_eco,
        checkpoint_dir=store,
        resume=True,
        n_workers=N_SHARDS,
    )
    assert_same_result(result, baseline)
    assert scrub_store(store).ok


def test_recompute_from_dataset_bounds(small_dataset):
    recompute = recompute_from_dataset(small_dataset)
    assert recompute(0, 5, 2) is None  # shard out of range
    assert recompute(0, 0, 0) is None  # no shard count recorded
    assert recompute(0, 0, N_SHARDS) is not None


def test_repaired_lenient_store_resumes_to_the_uninterrupted_run(
    tmp_path, small_eco, poisoned_dataset
):
    """Lenient units are the same pure slices as strict ones, so the
    recompute that ``repro scrub --repair --recompute`` runs heals a
    lenient store too."""
    ckpt = tmp_path / "ckpt"
    uninterrupted = run_durable_pipeline(
        poisoned_dataset,
        small_eco,
        checkpoint_dir=ckpt,
        lenient=True,
        n_workers=N_SHARDS,
    )
    assert dict(uninterrupted.degradation.n_failed_by_stage) == {"summary": 1}
    shard = shard_of("poison-runtime", N_SHARDS)
    flip_byte(ckpt / UNITS_DIRNAME / f"day_000.shard_{shard:03d}.ckpt")
    report = scrub_store(
        ckpt, repair=True, recompute=recompute_from_dataset(poisoned_dataset)
    )
    assert report.n_recomputed == 1 and report.healthy_after_scrub
    resumed = run_durable_pipeline(
        poisoned_dataset,
        small_eco,
        checkpoint_dir=ckpt,
        resume=True,
        lenient=True,
        n_workers=N_SHARDS,
    )
    assert observe(resumed) == observe(uninterrupted)


def three_batch_wal(directory, dataset):
    log = BatchLog(directory)
    radio = dataset.radio_events[:40]
    service = dataset.service_records[:40]
    for i in range(3):
        log.append(f"batch-{i}", *from_record_streams(radio, service))
    log.close()
    return directory


def bump_manifest_crc(directory):
    path = directory / MANIFEST_NAME
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["crc32"] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_wal_store_scrubs_from_its_units_own_bytes(tmp_path, small_dataset):
    wal_dir = three_batch_wal(tmp_path / "wal", small_dataset)
    assert scrub_store(wal_dir).n_verified_ok == 3

    flip_byte(sorted((wal_dir / UNITS_DIRNAME).glob("*.ckpt"))[1])
    report = scrub_store(wal_dir)
    assert [u.damage for u in report.damaged] == [DAMAGE_BIT_ROT]

    # Repair never recomputes WAL batches (their inputs are gone); the
    # damaged unit is dropped so replay stops tripping over it.
    healed = scrub_store(
        wal_dir, repair=True, recompute=lambda d, s, n: b"irrelevant"
    )
    assert healed.n_recomputed == 0 and healed.n_marked_for_rerun == 1
    replayed = BatchLog(wal_dir, resume=True).replay()
    assert [b.batch_id for b in replayed] == ["batch-0", "batch-2"]


def test_wal_whose_manifest_fails_its_crc_keeps_every_batch(tmp_path, small_dataset):
    """The manifest does not decide how a unit is read: with it damaged,
    every WAL unit still verifies and repair keeps every acked batch."""
    wal_dir = three_batch_wal(tmp_path / "wal", small_dataset)
    bump_manifest_crc(wal_dir)
    journal = (wal_dir / JOURNAL_NAME).read_bytes()

    report = scrub_store(wal_dir)
    assert report.manifest_error == "manifest checksum mismatch"
    assert (report.n_verified_ok, report.n_journaled_units) == (3, 3)
    assert report.damaged == []

    repaired = scrub_store(wal_dir, repair=True)
    assert repaired.manifest_error and not repaired.healthy_after_scrub
    assert repaired.n_marked_for_rerun == 0
    assert len(list((wal_dir / UNITS_DIRNAME).glob("*.ckpt"))) == 3
    assert (wal_dir / JOURNAL_NAME).read_bytes() == journal


def test_repair_recomputes_nothing_without_a_readable_manifest(store, small_dataset):
    """The shard count a recompute needs comes from the manifest: with
    the manifest damaged a damaged unit is marked for re-execution."""
    bump_manifest_crc(store)
    victim = unit_paths(store)[0]
    flip_byte(victim)
    report = scrub_store(
        store, repair=True, recompute=recompute_from_dataset(small_dataset)
    )
    assert (report.n_recomputed, report.n_marked_for_rerun) == (0, 1)
    assert not victim.exists()


def test_report_json_payload(store):
    flip_byte(unit_paths(store)[0])
    report = scrub_store(store)
    payload = json.loads(report.to_json())
    assert payload["n_damaged"] == 1
    assert payload["damaged"][0]["damage"] == DAMAGE_BIT_ROT
    assert payload["ok"] is False
    assert payload["directory"] == str(store)


def test_cli_scrub_exit_codes(store, capsys):
    from repro.cli import main

    assert main(["scrub", "--checkpoint-dir", str(store)]) == 0
    flip_byte(unit_paths(store)[0])
    assert main(["scrub", "--checkpoint-dir", str(store), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["n_damaged"] == 1
    # Repair without recompute marks the unit for re-execution: healthy.
    assert main(["scrub", "--checkpoint-dir", str(store), "--repair"]) == 0
    assert main(["scrub", "--checkpoint-dir", str(store / "nowhere")]) == 2


def test_cli_scrub_repair_recompute_matches_run(store, capsys):
    from repro.cli import main

    victim = unit_paths(store)[0]
    original = victim.read_bytes()
    flip_byte(victim)
    # The store was built from small_eco/small_dataset; mirror its knobs.
    exit_code = main(
        [
            "--uk-sites", "30", "--eco-seed", "11",
            "scrub", "--checkpoint-dir", str(store),
            "--repair", "--recompute", "--devices", "120", "--seed", "3",
        ]
    )
    assert exit_code == 0
    assert victim.read_bytes() == original
