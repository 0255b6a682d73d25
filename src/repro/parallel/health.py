"""Typed health reporting for the resilient pool seam.

A multi-day run at the paper's scale *will* lose workers — OOM kills,
node drains, hung shards.  :func:`repro.parallel.pool.map_shards`
recovers from those without failing the run, but recovery must never be
silent: every deadline hit, broken pool, retry, circuit-breaker trip and
in-process fallback is recorded here as a :class:`ShardIncident`, and
the aggregate :class:`RunHealth` rides on the pipeline result
(``PipelineResult.health``) so operators can tell a clean run from one
that limped home.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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

INCIDENT_KINDS = (
    DEADLINE,
    BROKEN_POOL,
    RETRY,
    BREAKER_TRIP,
    IN_PROCESS,
    TORN_CHECKPOINT,
    QUEUE_SATURATION,
    OVERLOAD_SHED,
    TASK_RESTART,
    SNAPSHOT,
    DEVICE_QUARANTINED,
)

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

STORAGE_INCIDENT_KINDS = (
    STORAGE_FAULT,
    UNIT_QUARANTINED,
    DISK_PRESSURE,
    SCRUB_DAMAGE,
)

#: Storage operations an incident can name.
STORAGE_OPS = ("write", "read", "fsync", "rename", "scrub")


@dataclass(frozen=True)
class ShardIncident:
    """One recovery-relevant event observed while running a shard.

    ``attempt`` is the 0-based pool attempt for that shard at the time
    of the incident; ``backoff_s`` is the (never-slept, policy-drawn)
    delay recorded for :data:`RETRY` incidents so the schedule stays
    auditable.
    """

    shard_index: int
    kind: str
    attempt: int = 0
    detail: str = ""
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(f"unknown incident kind {self.kind!r}")

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"shard {self.shard_index}: {self.kind} attempt={self.attempt}{suffix}"


@dataclass(frozen=True)
class StorageIncident:
    """One storage-layer event: a fault, a quarantine, disk pressure.

    Parallel to :class:`ShardIncident` but keyed by the operation and
    path rather than a shard index — a storage fault on the journal or
    manifest has no shard.  ``attempt`` is the 0-based retry attempt at
    the time of the incident.
    """

    kind: str
    op: str
    path: str = ""
    detail: str = ""
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_INCIDENT_KINDS:
            raise ValueError(f"unknown storage incident kind {self.kind!r}")
        if self.op not in STORAGE_OPS:
            raise ValueError(f"unknown storage op {self.op!r}")

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"storage {self.op} [{self.path}]: {self.kind}{suffix}"


@dataclass
class RunHealth:
    """Aggregate recovery record for one run (possibly many pool calls).

    ``ok`` means the run needed no recovery at all; a run that finished
    after retries is *complete* but not *clean*, and the distinction is
    the whole point of this report.
    """

    deadline_hits: int = 0
    broken_pools: int = 0
    retries: int = 0
    torn_checkpoints: int = 0
    queue_saturations: int = 0
    shed_batches: int = 0
    task_restarts: int = 0
    snapshots: int = 0
    devices_quarantined: int = 0
    storage_faults: int = 0
    units_quarantined: int = 0
    disk_pressure_events: int = 0
    scrub_damage_events: int = 0
    breaker_tripped: bool = False
    in_process_shards: List[int] = field(default_factory=list)
    incidents: List[ShardIncident] = field(default_factory=list)
    storage_incidents: List[StorageIncident] = field(default_factory=list)

    def record(self, incident: ShardIncident) -> None:
        """Append one incident and fold it into the counters."""
        self.incidents.append(incident)
        if incident.kind == DEADLINE:
            self.deadline_hits += 1
        elif incident.kind == BROKEN_POOL:
            self.broken_pools += 1
        elif incident.kind == RETRY:
            self.retries += 1
        elif incident.kind == BREAKER_TRIP:
            self.breaker_tripped = True
        elif incident.kind == IN_PROCESS:
            self.in_process_shards.append(incident.shard_index)
        elif incident.kind == TORN_CHECKPOINT:
            self.torn_checkpoints += 1
        elif incident.kind == QUEUE_SATURATION:
            self.queue_saturations += 1
        elif incident.kind == OVERLOAD_SHED:
            self.shed_batches += 1
        elif incident.kind == TASK_RESTART:
            self.task_restarts += 1
        elif incident.kind == SNAPSHOT:
            self.snapshots += 1
        elif incident.kind == DEVICE_QUARANTINED:
            self.devices_quarantined += 1

    def record_storage(self, incident: StorageIncident) -> None:
        """Append one storage incident and fold it into the counters."""
        self.storage_incidents.append(incident)
        if incident.kind == STORAGE_FAULT:
            self.storage_faults += 1
        elif incident.kind == UNIT_QUARANTINED:
            self.units_quarantined += 1
        elif incident.kind == DISK_PRESSURE:
            self.disk_pressure_events += 1
        elif incident.kind == SCRUB_DAMAGE:
            self.scrub_damage_events += 1

    @property
    def ok(self) -> bool:
        return not self.incidents and not self.storage_incidents

    def merge(self, other: Optional["RunHealth"]) -> "RunHealth":
        """Combine two reports (e.g. across stages or days) into a new one."""
        if other is None:
            return self
        merged = RunHealth()
        for incident in self.incidents + other.incidents:
            merged.record(incident)
        for storage in self.storage_incidents + other.storage_incidents:
            merged.record_storage(storage)
        return merged

    def summary(self) -> str:
        if self.ok:
            return "healthy: no recovery events"
        parts = [
            f"{self.deadline_hits} deadline hit(s)",
            f"{self.broken_pools} broken pool(s)",
            f"{self.retries} retr(y/ies)",
            f"{self.torn_checkpoints} torn checkpoint(s)",
        ]
        if self.queue_saturations:
            parts.append(f"{self.queue_saturations} queue saturation(s)")
        if self.shed_batches:
            parts.append(f"{self.shed_batches} shed batch(es)")
        if self.task_restarts:
            parts.append(f"{self.task_restarts} task restart(s)")
        if self.snapshots:
            parts.append(f"{self.snapshots} snapshot failure(s)")
        if self.devices_quarantined:
            parts.append(f"{self.devices_quarantined} device(s) quarantined")
        if self.storage_faults:
            parts.append(f"{self.storage_faults} storage fault(s)")
        if self.units_quarantined:
            parts.append(f"{self.units_quarantined} unit(s) quarantined")
        if self.disk_pressure_events:
            parts.append(f"{self.disk_pressure_events} disk pressure episode(s)")
        if self.scrub_damage_events:
            parts.append(f"{self.scrub_damage_events} scrub damage finding(s)")
        if self.breaker_tripped:
            parts.append("circuit breaker tripped")
        if self.in_process_shards:
            parts.append(f"in-process shards {sorted(set(self.in_process_shards))}")
        return "; ".join(parts)
