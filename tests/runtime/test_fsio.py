"""The fsio seam: fault-aware primitives never leave partial state."""

import errno

import pytest

from repro.faults.fsfault import (
    BIT_ROT,
    EIO_READ,
    EIO_WRITE,
    ENOSPC,
    FSYNC_FAIL,
    RENAME_FAIL,
    SHORT_WRITE,
    FsFault,
    FsFaultPlan,
    install,
)
from repro.runtime import fsio


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "blob.bin"
    assert fsio.write_file_bytes(path, b"payload") == len(b"payload")
    assert fsio.read_file_bytes(path) == b"payload"


def test_enospc_leaves_no_partial_file(tmp_path):
    path = tmp_path / "blob.bin"
    with install(FsFaultPlan(faults=(FsFault(ENOSPC),))):
        with pytest.raises(OSError) as excinfo:
            fsio.write_file_bytes(path, b"payload")
    assert excinfo.value.errno == errno.ENOSPC
    assert not path.exists()


def test_eio_write_leaves_no_partial_file(tmp_path):
    path = tmp_path / "blob.bin"
    with install(FsFaultPlan(faults=(FsFault(EIO_WRITE),))):
        with pytest.raises(OSError) as excinfo:
            fsio.write_file_bytes(path, b"payload")
    assert excinfo.value.errno == errno.EIO
    assert not path.exists()


def test_short_write_is_cleaned_up_not_left_torn(tmp_path):
    path = tmp_path / "blob.bin"
    with install(FsFaultPlan(faults=(FsFault(SHORT_WRITE),))):
        with pytest.raises(OSError):
            fsio.write_file_bytes(path, b"0123456789abcdef")
    # The prefix really was written, then the failed call removed it:
    # callers retry into a clean slot, never append onto a torn tail.
    assert not path.exists()


def test_fsync_fault_propagates_and_cleans(tmp_path):
    path = tmp_path / "blob.bin"
    with install(FsFaultPlan(faults=(FsFault(FSYNC_FAIL),))):
        with pytest.raises(OSError):
            fsio.write_file_bytes(path, b"payload")
    assert not path.exists()


def test_bit_rot_persists_damaged_bytes_silently(tmp_path):
    path = tmp_path / "blob.bin"
    data = bytes(range(256))
    with install(FsFaultPlan(seed=5, faults=(FsFault(BIT_ROT, flips=3),))):
        n = fsio.write_file_bytes(path, data)
    assert n == len(data)  # the write "succeeded"
    on_disk = fsio.read_file_bytes(path)
    assert len(on_disk) == len(data)
    assert on_disk != data


def test_read_fault_raises_after_clean_write(tmp_path):
    path = tmp_path / "blob.bin"
    fsio.write_file_bytes(path, b"payload")
    with install(FsFaultPlan(faults=(FsFault(EIO_READ),))):
        with pytest.raises(OSError) as excinfo:
            fsio.read_file_bytes(path)
    assert excinfo.value.errno == errno.EIO
    assert fsio.read_file_bytes(path) == b"payload"


def test_replace_file_unlinks_source_on_rename_fault(tmp_path):
    source = tmp_path / "unit.ckpt.tmp"
    target = tmp_path / "unit.ckpt"
    fsio.write_file_bytes(source, b"staged")
    with install(FsFaultPlan(faults=(FsFault(RENAME_FAIL),))):
        with pytest.raises(OSError):
            fsio.replace_file(source, target)
    # The staged temp never outlives the failed publish.
    assert not source.exists()
    assert not target.exists()


def test_replace_file_succeeds_without_faults(tmp_path):
    source = tmp_path / "unit.ckpt.tmp"
    target = tmp_path / "unit.ckpt"
    fsio.write_file_bytes(source, b"staged")
    fsio.replace_file(source, target)
    assert not source.exists()
    assert fsio.read_file_bytes(target) == b"staged"


def test_append_text_applies_write_faults(tmp_path):
    path = tmp_path / "journal.jsonl"
    handle = fsio.open_append(path)
    try:
        fsio.append_text(handle, path, "line-1\n")
        with install(FsFaultPlan(faults=(FsFault(ENOSPC),))):
            with pytest.raises(OSError):
                fsio.append_text(handle, path, "line-2\n")
        fsio.append_text(handle, path, "line-3\n")
        fsio.fsync_handle(handle, path)
    finally:
        handle.close()
    assert fsio.read_file_bytes(path) == b"line-1\nline-3\n"


def test_fsync_handle_fault(tmp_path):
    path = tmp_path / "journal.jsonl"
    handle = fsio.open_append(path)
    try:
        with install(FsFaultPlan(faults=(FsFault(FSYNC_FAIL),))):
            with pytest.raises(OSError):
                fsio.fsync_handle(handle, path)
    finally:
        handle.close()


def test_fsync_dir_swallows_but_exercises_injected_faults(tmp_path):
    # Directory fsync is best-effort (not all filesystems support it):
    # the injected fault fires — covering the swallow path — but never
    # propagates.
    with install(
        FsFaultPlan(faults=(FsFault(FSYNC_FAIL, match=tmp_path.name),))
    ) as injector:
        fsio.fsync_dir(tmp_path)
        assert injector.n_fired == 1
    fsio.fsync_dir(tmp_path)  # no fault: silent
