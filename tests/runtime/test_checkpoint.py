"""CheckpointStore semantics: atomicity, validation, journal recovery."""

import json

import pytest

from repro.faults.crash import make_manifest_stale
from repro.runtime.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.runtime.serialize import (
    CheckpointCorruption,
    CheckpointError,
    StaleManifestError,
)

FP = {"source": "test", "days": [0, 1], "lenient": False}


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact.bin"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_text_round_trips(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, '{"k": 1}')
    assert json.loads(target.read_text(encoding="utf-8")) == {"k": 1}


def test_before_replace_hook_sees_destination(tmp_path):
    seen = []
    atomic_write_bytes(tmp_path / "unit.ckpt", b"x", before_replace=seen.append)
    assert [p.name for p in seen] == ["unit.ckpt"]


def test_fresh_store_then_resume_round_trip(tmp_path):
    with CheckpointStore(tmp_path, FP, n_shards=2) as store:
        assert store.attempt == 0
        store.save_unit(0, 0, b"block")
        store.mark_complete(0, 0)
        assert store.is_journaled(0, 0)
        assert not store.is_journaled(0, 1)
    with CheckpointStore(tmp_path, FP, n_shards=2, resume=True) as store:
        assert store.attempt == 1
        assert store.is_journaled(0, 0)
        assert store.load_unit(0, 0) == b"block"
        assert store.journal_entries() == [{"day": 0, "shard": 0, "attempt": 0}]


def test_existing_manifest_without_resume_refuses(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    with pytest.raises(CheckpointError, match="resume=True"):
        CheckpointStore(tmp_path, FP, n_shards=1)


def test_resume_adopts_recorded_shard_count(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=4).close()
    store = CheckpointStore(tmp_path, FP, n_shards=2, resume=True)
    assert store.n_shards == 4
    store.close()


def test_fingerprint_mismatch_raises_stale(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    other = dict(FP, lenient=True)
    with pytest.raises(StaleManifestError, match="lenient"):
        CheckpointStore(tmp_path, other, n_shards=1, resume=True)


def test_stale_version_injector_raises(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    make_manifest_stale(tmp_path, mode="version")
    with pytest.raises(StaleManifestError, match="version"):
        CheckpointStore(tmp_path, FP, n_shards=1, resume=True)


def test_stale_fingerprint_injector_raises(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    make_manifest_stale(tmp_path, mode="fingerprint")
    with pytest.raises(StaleManifestError, match="differing keys"):
        CheckpointStore(tmp_path, FP, n_shards=1, resume=True)


def test_corrupted_manifest_raises_corruption(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    manifest = tmp_path / MANIFEST_NAME
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["payload"]["n_shards"] = 99  # payload no longer matches its crc
    atomic_write_text(manifest, json.dumps(doc))
    with pytest.raises(CheckpointCorruption, match="checksum"):
        CheckpointStore(tmp_path, FP, n_shards=1, resume=True)


def test_unparseable_manifest_raises_corruption(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    atomic_write_text(tmp_path / MANIFEST_NAME, "{not json")
    with pytest.raises(CheckpointCorruption, match="unreadable"):
        CheckpointStore(tmp_path, FP, n_shards=1, resume=True)


def test_torn_journal_tail_is_discarded(tmp_path):
    with CheckpointStore(tmp_path, FP, n_shards=2) as store:
        store.save_unit(0, 0, b"a")
        store.mark_complete(0, 0)
        store.save_unit(0, 1, b"b")
        store.mark_complete(0, 1)
    journal = tmp_path / JOURNAL_NAME
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"day": 1, "shard": 0, "att')  # torn mid-line
    store = CheckpointStore(tmp_path, FP, n_shards=2, resume=True)
    assert store.is_journaled(0, 0) and store.is_journaled(0, 1)
    assert not store.is_journaled(1, 0)
    store.close()


def test_journal_line_with_bad_crc_stops_replay(tmp_path):
    with CheckpointStore(tmp_path, FP, n_shards=2) as store:
        store.mark_complete(0, 0)
    journal = tmp_path / JOURNAL_NAME
    lines = journal.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    doc["shard"] = 1  # entry no longer matches its crc
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    store = CheckpointStore(tmp_path, FP, n_shards=2, resume=True)
    assert store.is_journaled(0, 0)
    assert not store.is_journaled(0, 1)
    store.close()


def test_missing_unit_block_raises_corruption(tmp_path):
    with CheckpointStore(tmp_path, FP, n_shards=1) as store:
        store.mark_complete(0, 0)  # journaled but never saved
        with pytest.raises(CheckpointCorruption, match="no block file"):
            store.load_unit(0, 0)


def test_stray_temp_files_cleaned_on_open(tmp_path):
    with CheckpointStore(tmp_path, FP, n_shards=1) as store:
        stray = store.unit_path(0, 0).with_name("day_000.shard_000.ckpt.tmp")
        stray.write_bytes(b"partial")
    store = CheckpointStore(tmp_path, FP, n_shards=1, resume=True)
    assert not stray.exists()
    store.close()


def test_save_unit_rename_failure_unlinks_staged_tmp(tmp_path):
    from repro.faults.fsfault import RENAME_FAIL, FsFault, FsFaultPlan, install

    with CheckpointStore(tmp_path, FP, n_shards=1) as store:
        with install(FsFaultPlan(faults=(FsFault(RENAME_FAIL),))):
            with pytest.raises(OSError):
                store.save_unit(0, 0, b"unit block")
        # The failed publish strands neither the staged temp nor a
        # half-published target.
        assert list(tmp_path.rglob("*.tmp")) == []
        assert not store.unit_path(0, 0).exists()
        # A retried publish then succeeds.
        store.save_unit(0, 0, b"unit block")
        assert store.load_unit(0, 0) == b"unit block"


def test_save_unit_write_fault_leaves_no_torn_state(tmp_path):
    from repro.faults.fsfault import ENOSPC, FsFault, FsFaultPlan, install

    with CheckpointStore(tmp_path, FP, n_shards=1) as store:
        with install(FsFaultPlan(faults=(FsFault(ENOSPC),))):
            with pytest.raises(OSError):
                store.save_unit(0, 0, b"payload")
        assert not store.unit_path(0, 0).exists()
        assert list(tmp_path.rglob("*.tmp")) == []
        store.save_unit(0, 0, b"payload")
        assert store.load_unit(0, 0) == b"payload"
