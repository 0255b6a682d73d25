"""At-rest scrubbing: classify torn/rotted/missing units, heal, converge."""

import json
import shutil

import pytest

from repro.columnar import from_record_streams
from repro.faults.fsfault import EIO_READ, FsFault, FsFaultPlan, install
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
from tests.runtime.test_durable_run import assert_same_result

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


def test_repair_recomputes_byte_identical_units(store, small_dataset):
    victims = unit_paths(store)[:3]
    originals = [v.read_bytes() for v in victims]
    flip_byte(victims[0])
    victims[1].write_bytes(originals[1][:10])
    victims[2].unlink()
    report = scrub_store(
        store, repair=True, recompute=recompute_from_dataset(small_dataset)
    )
    assert report.n_recomputed == 3 and report.n_marked_for_rerun == 0
    assert report.healthy_after_scrub
    # Units are pure: the rebuilt blocks match the originals byte for byte.
    assert [v.read_bytes() for v in victims] == originals
    assert scrub_store(store).ok


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
    # Lenient stores need the run's builder for per-unit validation.
    assert recompute_from_dataset(small_dataset, lenient=True)(0, 0, 2) is None


def test_wal_store_scrubs_through_the_envelope(tmp_path, small_dataset):
    wal_dir = tmp_path / "wal"
    log = BatchLog(wal_dir)
    radio = small_dataset.radio_events[:40]
    service = small_dataset.service_records[:40]
    for i in range(3):
        log.append(f"batch-{i}", *from_record_streams(radio, service))
    log.close()
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
