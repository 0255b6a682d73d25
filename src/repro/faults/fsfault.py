"""Deterministic, seeded filesystem fault injection for the storage seam.

The data injectors (:mod:`repro.faults.inject`) corrupt *records*; the
crash injectors (:mod:`repro.faults.crash`) kill the *process*.  This
module injects the third failure family a multi-week run meets: the
*disk* misbehaving underneath a healthy process — ``ENOSPC`` when a
volume fills, ``EIO`` on reads or writes from a failing device, fsync
refusals, short writes that persist only a prefix, and latent bit rot
that flips bytes at rest without any syscall ever failing.

Faults are described by a serializable :class:`FsFaultPlan` (seeded,
JSON round-trippable, exactly like :class:`repro.faults.plan.FaultPlan`)
and armed by an :class:`FsFaultInjector`.  The injector is consulted by
:mod:`repro.runtime.fsio` — the single module every durable write/read
in the runtime and service layers routes through (lint rule ``FS001``
enforces the routing) — so arming a plan perturbs *every* storage
consumer without patching any of them.

Activation is ambient: :func:`install` arms an injector for the current
process (a context manager, so tests cannot leak faults), and the
``REPRO_FSFAULT_PLAN`` environment variable carries a JSON plan into
subprocesses — kill-matrix children see the same faults their parent
armed.  With nothing armed, :func:`active` returns
``None`` and the storage hot path pays a single attribute check.

Determinism: which byte positions bit rot flips is drawn from a
generator seeded by ``plan.seed ^ crc32(file name)`` — stable per
(plan, file), independent of call order and process interleaving.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

PathLike = Union[str, "os.PathLike[str]"]

#: ``write`` fails with ``ENOSPC`` before any byte reaches the file.
ENOSPC = "enospc"
#: ``write`` fails with ``EIO`` before any byte reaches the file.
EIO_WRITE = "eio-write"
#: ``read`` fails with ``EIO``.
EIO_READ = "eio-read"
#: ``fsync`` fails with ``EIO``; the file's durability is unknown.
FSYNC_FAIL = "fsync-fail"
#: A prefix of the data lands on disk, then the write fails ``ENOSPC``.
SHORT_WRITE = "short-write"
#: The write "succeeds" but seeded byte flips land on disk (latent rot).
BIT_ROT = "bit-rot"
#: The atomic rename itself fails with ``EIO``.
RENAME_FAIL = "rename-fail"

FAULT_KINDS = (
    ENOSPC,
    EIO_WRITE,
    EIO_READ,
    FSYNC_FAIL,
    SHORT_WRITE,
    BIT_ROT,
    RENAME_FAIL,
)

#: Kinds consulted per I/O operation.
WRITE_KINDS = (ENOSPC, EIO_WRITE, SHORT_WRITE, BIT_ROT)
READ_KINDS = (EIO_READ,)
FSYNC_KINDS = (FSYNC_FAIL,)
RENAME_KINDS = (RENAME_FAIL,)

_ERRNO_OF = {
    ENOSPC: errno.ENOSPC,
    EIO_WRITE: errno.EIO,
    EIO_READ: errno.EIO,
    FSYNC_FAIL: errno.EIO,
    SHORT_WRITE: errno.ENOSPC,
    RENAME_FAIL: errno.EIO,
}

#: Environment variable carrying a JSON :class:`FsFaultPlan` into child
#: processes (e.g. kill-matrix subprocesses).
FSFAULT_PLAN_ENV = "REPRO_FSFAULT_PLAN"


@dataclass(frozen=True)
class FsFault:
    """One armed fault: a kind, a path filter, and a firing budget.

    ``match`` is a substring tested against the target's posix path —
    ``"day_001.shard_000"`` arms one unit, ``"journal"`` the journal,
    ``""`` every file the seam touches.  ``times`` bounds how often the
    fault fires (transient faults retry away); negative means every
    matching operation fails (a persistent fault).  ``flips`` is the
    number of byte positions :data:`BIT_ROT` flips.
    """

    kind: str
    match: str = ""
    times: int = 1
    flips: int = 3

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fsfault kind {self.kind!r}")
        if self.times == 0:
            raise ValueError("times must be nonzero (negative = persistent)")
        if self.flips < 1:
            raise ValueError(f"flips must be >= 1, got {self.flips}")


@dataclass(frozen=True)
class FsFaultPlan:
    """A seeded, serializable composition of filesystem faults."""

    seed: int = 0
    faults: Tuple[FsFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [
                {
                    "kind": f.kind,
                    "match": f.match,
                    "times": f.times,
                    "flips": f.flips,
                }
                for f in self.faults
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FsFaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            faults=tuple(
                FsFault(
                    kind=str(doc["kind"]),
                    match=str(doc.get("match", "")),
                    times=int(doc.get("times", 1)),
                    flips=int(doc.get("flips", 3)),
                )
                for doc in payload.get("faults", [])
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FsFaultPlan":
        return cls.from_payload(json.loads(text))


def _fault_error(kind: str, path: PathLike) -> OSError:
    code = _ERRNO_OF[kind]
    return OSError(code, f"injected {kind}: {os.strerror(code)}", str(path))


class FsFaultInjector:
    """Armed fault plan plus per-fault firing state.

    The probe methods (:meth:`write_fault`, :meth:`read_fault`,
    :meth:`fsync_fault`, :meth:`rename_fault`) are what
    :mod:`repro.runtime.fsio` consults; each selects the first armed
    fault of a matching kind whose path filter matches and whose firing
    budget is not exhausted, consuming one firing.  ``fired`` keeps the
    audit trail: every firing as ``(kind, match, path name)``.
    """

    def __init__(self, plan: FsFaultPlan) -> None:
        self.plan = plan
        self._remaining: List[int] = [f.times for f in plan.faults]
        self.fired: List[Tuple[str, str, str]] = []

    def _select(self, path: PathLike, kinds: Sequence[str]) -> Optional[FsFault]:
        posix = Path(path).as_posix()
        for index, fault in enumerate(self.plan.faults):
            if fault.kind not in kinds:
                continue
            if fault.match and fault.match not in posix:
                continue
            if self._remaining[index] == 0:
                continue
            if self._remaining[index] > 0:
                self._remaining[index] -= 1
            self.fired.append((fault.kind, fault.match, Path(path).name))
            return fault
        return None

    @property
    def n_fired(self) -> int:
        return len(self.fired)

    # -- per-operation probes ------------------------------------------------

    def write_fault(self, path: PathLike) -> Optional[FsFault]:
        """The write-kind fault armed for ``path``, if any (consumed)."""
        return self._select(path, WRITE_KINDS)

    def read_fault(self, path: PathLike) -> None:
        """Raise injected ``EIO`` if a read fault is armed for ``path``."""
        fault = self._select(path, READ_KINDS)
        if fault is not None:
            raise _fault_error(fault.kind, path)

    def fsync_fault(self, path: PathLike) -> None:
        """Raise injected ``EIO`` if an fsync fault is armed for ``path``."""
        fault = self._select(path, FSYNC_KINDS)
        if fault is not None:
            raise _fault_error(fault.kind, path)

    def rename_fault(self, target: PathLike) -> None:
        """Raise injected ``EIO`` if a rename fault is armed for ``target``."""
        fault = self._select(target, RENAME_KINDS)
        if fault is not None:
            raise _fault_error(fault.kind, target)

    def rot(self, path: PathLike, data: bytes, fault: FsFault) -> bytes:
        """Flip ``fault.flips`` seeded byte positions of ``data``.

        Positions are drawn from a generator seeded by
        ``seed ^ crc32(name)``, so the damage is a pure function of
        (plan, file name).  The first 20 bytes — a framed block's
        magic/version/crc/length header — are spared when the payload
        is long enough, so rot models payload corruption (a CRC
        mismatch on read) rather than a torn frame.
        """
        if not data:
            return data
        name = Path(path).name.encode("utf-8")
        rng = np.random.default_rng(self.plan.seed ^ zlib.crc32(name))
        lo = 20 if len(data) > 40 else 0
        rotted = bytearray(data)
        for _ in range(fault.flips):
            position = int(rng.integers(lo, len(data)))
            rotted[position] ^= 1 << int(rng.integers(0, 8))
        return bytes(rotted)


_ACTIVE: Optional[FsFaultInjector] = None
#: Cache for the env-activated injector: (raw env value, injector) — the
#: same injector (and its firing budgets) persists across fsio calls.
_ENV_INJECTOR: Optional[Tuple[str, FsFaultInjector]] = None


def active() -> Optional[FsFaultInjector]:
    """The ambient injector, if one is armed (install > environment)."""
    global _ENV_INJECTOR
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(FSFAULT_PLAN_ENV)
    if not raw:
        return None
    if _ENV_INJECTOR is None or _ENV_INJECTOR[0] != raw:
        _ENV_INJECTOR = (raw, FsFaultInjector(FsFaultPlan.from_json(raw)))
    return _ENV_INJECTOR[1]


@contextlib.contextmanager
def install(
    plan: Union[FsFaultPlan, FsFaultInjector],
) -> Iterator[FsFaultInjector]:
    """Arm ``plan`` for the current process (restored on exit)."""
    global _ACTIVE
    injector = plan if isinstance(plan, FsFaultInjector) else FsFaultInjector(plan)
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
