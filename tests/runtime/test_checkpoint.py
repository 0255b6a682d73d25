"""CheckpointStore semantics: atomicity, validation, journal recovery."""

import json
from pathlib import Path

import pytest

from repro.faults.crash import make_manifest_stale
from repro.runtime.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    CheckpointCorruption,
    CheckpointError,
    CheckpointStore,
    StaleManifestError,
    _payload_crc,
    atomic_write_bytes,
    atomic_write_text,
    read_journal,
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


def test_manifest_that_is_not_utf8_raises_corruption(tmp_path):
    CheckpointStore(tmp_path, FP, n_shards=1).close()
    atomic_write_bytes(tmp_path / MANIFEST_NAME, b'{"payload": "\xff"}')
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


def crc_line(doc):
    """A journal line holding ``doc`` under a valid CRC, whatever its
    shape."""
    return json.dumps(dict(doc, crc=_payload_crc(doc)), sort_keys=True) + "\n"


def append_journal_line(directory, line):
    """Append ``line`` (text, or bytes as they are) to a store's journal."""
    data = line if isinstance(line, bytes) else line.encode("utf-8")
    with open(Path(directory) / JOURNAL_NAME, "ab") as journal:
        journal.write(data)


#: Journal lines of another shape than ``mark_complete`` writes, each
#: with what reading one did before it counted as torn.
JOURNAL_LINE_DAMAGE = {
    "empty-object": crc_line({}),  # KeyError
    "no-attempt": crc_line({"day": 1, "shard": 0}),  # KeyError
    "day-a-word": crc_line({"day": "a", "shard": 0, "attempt": 0}),  # ValueError
    "day-null": crc_line({"day": None, "shard": 0, "attempt": 0}),  # TypeError
    "day-a-numeral": crc_line({"day": "1", "shard": 0, "attempt": 0}),  # none: day 1
    "day-negative": crc_line({"day": -1, "shard": 0, "attempt": 0}),  # none: day -1
    "shard-a-bool": crc_line({"day": 1, "shard": True, "attempt": 0}),  # none: shard 1
    "attempt-a-fraction": crc_line({"day": 1, "shard": 0, "attempt": 0.5}),  # none: attempt 0
    "a-list": "[1]\n",  # TypeError
    "not-utf8": b"\xff\xfe\n",  # UnicodeDecodeError
    "batch-id-a-number": crc_line(
        {"day": 1, "shard": 0, "attempt": 0, "batch_id": 7}
    ),  # none: the key was not read
}

#: The cases the journal's readers (durable resume, WAL start, scrub)
#: are held to.
READER_JOURNAL_DAMAGE = ("day-a-word", "day-null", "empty-object")


@pytest.mark.parametrize("damage", sorted(JOURNAL_LINE_DAMAGE))
def test_journal_line_of_another_shape_is_torn(tmp_path, damage):
    """A CRC-valid line that does not hold an integer day, shard and
    attempt is torn like a CRC mismatch: it and every later line are
    discarded, counted, and cut from the journal."""
    with CheckpointStore(tmp_path, FP, n_shards=2) as store:
        store.mark_complete(0, 0)
    append_journal_line(tmp_path, JOURNAL_LINE_DAMAGE[damage])
    append_journal_line(tmp_path, crc_line({"day": 0, "shard": 1, "attempt": 0}))
    store = CheckpointStore(tmp_path, FP, n_shards=2, resume=True)
    assert store.n_torn_journal_lines == 2
    assert store.journal_entries() == [{"day": 0, "shard": 0, "attempt": 0}]
    store.close()
    with CheckpointStore(tmp_path, FP, n_shards=2, resume=True) as store:
        assert store.n_torn_journal_lines == 0


def test_batch_id_rides_the_journal_line_and_its_rewrites(tmp_path):
    """A batch id is kept under the line's CRC, and the torn-tail
    rewrite keeps it; a line without one is what a batch run writes."""
    with CheckpointStore(tmp_path, FP, n_shards=1) as store:
        store.mark_complete(0, 0, "b-0")
        store.mark_complete(1, 0)
    append_journal_line(tmp_path, "torn")
    entries = [
        {"day": 0, "shard": 0, "attempt": 0, "batch_id": "b-0"},
        {"day": 1, "shard": 0, "attempt": 0},
    ]
    with CheckpointStore(tmp_path, FP, n_shards=1, resume=True) as store:
        assert store.n_torn_journal_lines == 1
        assert store.journal_entries() == entries
    assert read_journal(tmp_path / JOURNAL_NAME) == (entries, 0)
    assert (tmp_path / JOURNAL_NAME).read_text(encoding="utf-8").splitlines()[1] == (
        crc_line({"day": 1, "shard": 0, "attempt": 0}).strip()
    )


def reshape_manifest(directory, edit):
    """Rewrite a store's manifest payload through ``edit`` under a valid
    CRC, so only its shape is wrong."""
    path = Path(directory) / MANIFEST_NAME
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["payload"] = edit(doc["payload"])
    doc["crc32"] = _payload_crc(doc["payload"])
    atomic_write_text(path, json.dumps(doc))


def _without(key):
    return lambda payload: {name: value for name, value in payload.items() if name != key}


def _with(key, value):
    return lambda payload: dict(payload, **{key: value})


#: Manifest payloads of another shape than the store writes, each with
#: what opening one did before it counted as corruption.
MANIFEST_DAMAGE = {
    "no-n-shards": _without("n_shards"),  # KeyError
    "n-shards-a-word": _with("n_shards", "two"),  # ValueError
    "n-shards-zero": _with("n_shards", 0),  # none: a store of no shards
    "n-shards-a-bool": _with("n_shards", True),  # none: one shard
    "no-attempt": _without("attempt"),  # KeyError
    "attempt-negative": _with("attempt", -2),  # none: attempt -1
    "attempt-a-fraction": _with("attempt", 1.5),  # none: attempt 2
    "fingerprint-a-list": _with("fingerprint", []),  # AttributeError
    "no-fingerprint": _without("fingerprint"),  # StaleManifestError
}

#: The cases the manifest's readers (durable resume, WAL start, scrub)
#: are held to.
READER_MANIFEST_DAMAGE = ("n-shards-a-word", "no-n-shards")


@pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGE))
def test_manifest_payload_of_another_shape_is_corruption(tmp_path, damage):
    CheckpointStore(tmp_path, FP, n_shards=2).close()
    reshape_manifest(tmp_path, MANIFEST_DAMAGE[damage])
    with pytest.raises(CheckpointCorruption, match="manifest"):
        CheckpointStore(tmp_path, FP, n_shards=2, resume=True)
