"""Fault-aware storage I/O: the one seam every durable byte crosses.

All raw file operations in the durable runtime and the service layer —
staging writes, journal appends, fsyncs, the atomic publish rename,
unit reads — route through this module (lint rule ``FS001`` bans the
bare calls elsewhere in ``runtime``/``service``).  Centralizing them
buys two things:

* **Fault injection.**  Every helper consults the ambient
  :class:`repro.faults.fsfault.FsFaultInjector` (when one is armed)
  before touching the filesystem, so a seeded
  :class:`~repro.faults.fsfault.FsFaultPlan` perturbs ENOSPC/EIO/fsync/
  short-write/bit-rot/rename behavior uniformly across every consumer.
* **Failure hygiene.**  The cleanup contracts storage hardening relies
  on live here once, not per call site: a failed staging write unlinks
  its partial file before the ``OSError`` propagates (no torn ``*.tmp``
  survives a write fault), and a failed publish rename unlinks the
  staged source so a failed publish can never strand staging files.

With no injector armed each helper is the raw operation plus one
``None`` check — the ``checkpoint_overhead`` bench gate holds with this
path enabled.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Union

from repro.faults.fsfault import (
    BIT_ROT,
    SHORT_WRITE,
    FsFault,
    _fault_error,
    active,
)

PathLike = Union[str, Path]


def write_file_bytes(path: PathLike, data: bytes, fsync: bool = True) -> int:
    """Write ``data`` to ``path`` (create/truncate), flushed and fsynced.

    On *any* failure — injected or real, including an fsync refusal,
    whose file is of unknown durability and must not be trusted — the
    partial file is unlinked before the ``OSError`` propagates, so a
    failed staging write never leaves a torn file behind.
    """
    target = Path(path)
    injector = active()
    fault: "FsFault | None" = None
    payload = data
    if injector is not None:
        fault = injector.write_fault(target)
        if fault is not None and fault.kind not in (SHORT_WRITE, BIT_ROT):
            raise _fault_error(fault.kind, target)
        if fault is not None and fault.kind == BIT_ROT:
            payload = injector.rot(target, data, fault)
    try:
        with open(target, "wb") as handle:
            if fault is not None and fault.kind == SHORT_WRITE:
                handle.write(payload[: len(payload) // 2])
                handle.flush()
                raise _fault_error(fault.kind, target)
            handle.write(payload)
            handle.flush()
            if fsync:
                if injector is not None:
                    injector.fsync_fault(target)
                os.fsync(handle.fileno())
    except OSError:
        with contextlib.suppress(OSError):
            target.unlink()
        raise
    return len(data)


def read_file_bytes(path: PathLike) -> bytes:
    """Read ``path`` whole, honoring any armed read fault."""
    target = Path(path)
    injector = active()
    if injector is not None:
        injector.read_fault(target)
    return target.read_bytes()


def replace_file(source: PathLike, target: PathLike) -> None:
    """Atomic publish rename; the staged source never outlives a failure.

    On rename failure (injected or real) the staged ``source`` is
    unlinked before the ``OSError`` propagates: a failed publish must
    not strand staging files for the resume-time sweep to miscount, and
    the caller's retry re-stages from data it still holds.
    """
    try:
        injector = active()
        if injector is not None:
            injector.rename_fault(Path(target))
        os.replace(source, target)
    except OSError:
        with contextlib.suppress(OSError):
            Path(source).unlink()
        raise


def open_append(path: PathLike) -> IO[str]:
    """Open the journal-style append handle this module's appends use."""
    return open(path, "a", encoding="utf-8")  # noqa: SIM115 — held by caller


def append_text(handle: IO[str], path: PathLike, text: str) -> None:
    """Append ``text`` to an open journal handle, flushed.

    Injected write faults apply (``ENOSPC``/``EIO`` before any byte,
    short-write persisting a prefix); bit rot does not — journal lines
    are self-CRC'd UTF-8 and rot there is modeled at load time instead.
    A failed append can leave a torn tail in the file; the owning store
    repairs its journal from in-memory state before retrying.
    """
    target = Path(path)
    injector = active()
    if injector is not None:
        fault = injector.write_fault(target)
        if fault is not None:
            if fault.kind == SHORT_WRITE:
                handle.write(text[: len(text) // 2])
                handle.flush()
            if fault.kind != BIT_ROT:
                raise _fault_error(fault.kind, target)
    handle.write(text)
    handle.flush()


def fsync_handle(handle: IO[str], path: PathLike) -> None:
    """fsync an open handle, honoring any armed fsync fault."""
    injector = active()
    if injector is not None:
        injector.fsync_fault(Path(path))
    os.fsync(handle.fileno())


def fsync_dir(directory: PathLike) -> None:
    """Best-effort directory fsync (persists renames within it).

    Not all filesystems support opening a directory, so failure here is
    swallowed; injected fsync faults *do* apply, so chaos runs exercise
    the swallow path deliberately.
    """
    injector = active()
    try:
        if injector is not None:
            injector.fsync_fault(Path(directory))
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)
