"""Typed health reporting: one incident record for every recovery event.

A multi-day run at the paper's scale *will* lose workers — OOM kills,
node drains, hung shards — and disks.  :func:`repro.parallel.pool.map_shards`,
the durable runtime and the catalog daemon recover from those without
failing, but recovery must never be silent: every deadline hit, broken
pool, retry, circuit-breaker trip, in-process fallback, torn checkpoint,
storage fault and daemon event is recorded once, as an
:class:`Incident`, in a :class:`RunHealth`.  That report rides on the
pipeline result (``PipelineResult.health``) and under the daemon's
``healthz``, so operators can tell a clean run from one that limped home.

Four kinds are storage incidents (:data:`STORAGE_INCIDENT_KINDS`): they,
and only they, name the storage operation they concern (``op``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

#: A shard's wait exceeded its deadline (the hung-worker case).
DEADLINE = "deadline"
#: The pool itself died (worker SIGKILLed / OOMed mid-shard).
BROKEN_POOL = "broken-pool"
#: A failed shard was resubmitted to a fresh pool under the retry policy.
RETRY = "retry"
#: Consecutive pool failures crossed the breaker threshold.
BREAKER_TRIP = "breaker-trip"
#: A shard ran in the parent process instead of a pool.
IN_PROCESS = "in-process"
#: A checkpointed unit failed CRC/format validation and was re-executed.
TORN_CHECKPOINT = "torn-checkpoint"
#: The service ingest queue crossed its high watermark (shedding began).
QUEUE_SATURATION = "queue-saturation"
#: One ingest batch was rejected with a typed overload rejection.
OVERLOAD_SHED = "overload-shed"
#: A supervised background task crashed and was restarted.
TASK_RESTART = "task-restart"
#: A durable snapshot/sync cycle failed (detail carries the error); routine
#: successful snapshots are gauges on ``ServiceHealth``, not incidents.
SNAPSHOT = "snapshot"
#: A daemon snapshot left a device out of the catalog because its
#: summary raised (e.g. an unlabelable SIM/network pair).
DEVICE_QUARANTINED = "device-quarantined"
#: A storage operation failed (ENOSPC/EIO/fsync/rename); detail carries
#: the error, ``op`` the operation.  Transient faults that retried away
#: still leave one of these per failed attempt.
STORAGE_FAULT = "storage-fault"
#: Lenient degradation: a unit's persistence exhausted its retries and
#: the unit was dropped from the catalog fold (re-executed on resume).
UNIT_QUARANTINED = "unit-quarantined"
#: Free disk crossed the daemon's low watermark; ingest is being shed
#: until it recovers past the resume watermark (one incident/episode).
DISK_PRESSURE = "disk-pressure"
#: The scrubber classified damage in a store (detail carries the unit
#: and damage class).
SCRUB_DAMAGE = "scrub-damage"

#: Each kind, in report order, with the phrase ``summary`` counts it by.
_PHRASES = {
    DEADLINE: "deadline hit(s)",
    BROKEN_POOL: "broken pool(s)",
    RETRY: "retr(y/ies)",
    BREAKER_TRIP: "circuit breaker trip(s)",
    IN_PROCESS: "in-process shard run(s)",
    TORN_CHECKPOINT: "torn checkpoint(s)",
    QUEUE_SATURATION: "queue saturation(s)",
    OVERLOAD_SHED: "shed batch(es)",
    TASK_RESTART: "task restart(s)",
    SNAPSHOT: "snapshot failure(s)",
    DEVICE_QUARANTINED: "device(s) quarantined",
    STORAGE_FAULT: "storage fault(s)",
    UNIT_QUARANTINED: "unit(s) quarantined",
    DISK_PRESSURE: "disk pressure episode(s)",
    SCRUB_DAMAGE: "scrub damage finding(s)",
}

#: The kinds that must name a storage operation, and the only ones that may.
STORAGE_INCIDENT_KINDS = (STORAGE_FAULT, UNIT_QUARANTINED, DISK_PRESSURE, SCRUB_DAMAGE)

#: Storage operations an incident can name.
STORAGE_OPS = ("write", "read", "fsync", "rename", "scrub")


@dataclass(frozen=True)
class Incident:
    """One recovery-relevant event.

    ``shard`` is the pool shard or durable unit shard it concerns (0
    where none does); ``attempt`` is the 0-based pool or storage retry
    attempt at the time; ``op`` and ``path`` name the storage operation
    and file of a storage incident; ``backoff_s`` is the (never-slept,
    policy-drawn) delay recorded for :data:`RETRY` incidents so the
    schedule stays auditable.
    """

    kind: str
    detail: str = ""
    shard: int = 0
    attempt: int = 0
    op: str = ""
    path: str = ""
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _PHRASES:
            raise ValueError(f"unknown incident kind {self.kind!r}")
        if self.op and self.op not in STORAGE_OPS:
            raise ValueError(f"unknown storage op {self.op!r}")
        if bool(self.op) != (self.kind in STORAGE_INCIDENT_KINDS):
            raise ValueError(
                f"incident kind {self.kind!r} with op {self.op!r}: storage "
                "kinds, and only they, name a storage op"
            )


@dataclass
class RunHealth:
    """Every incident of one run (possibly many pool calls), in order.

    ``ok`` means the run needed no recovery at all; a run that finished
    after retries is *complete* but not *clean*, and the distinction is
    the whole point of this report.
    """

    incidents: List[Incident] = field(default_factory=list)

    def record(self, incident: Incident) -> None:
        self.incidents.append(incident)

    def count(self, kind: str) -> int:
        """How many incidents of ``kind`` were recorded."""
        if kind not in _PHRASES:
            raise ValueError(f"unknown incident kind {kind!r}")
        return sum(1 for incident in self.incidents if incident.kind == kind)

    @property
    def ok(self) -> bool:
        return not self.incidents

    def summary(self) -> str:
        """One line: each recorded kind with its count, in kind order."""
        if self.ok:
            return "healthy: no recovery events"
        counts = Counter(incident.kind for incident in self.incidents)
        return "; ".join(
            f"{counts[kind]} {phrase}" for kind, phrase in _PHRASES.items() if counts[kind]
        )
