"""Service-level health: RunHealth incidents plus liveness gauges.

The daemon reuses the batch runtime's incident taxonomy
(:class:`repro.parallel.health.RunHealth`) so one vocabulary covers
both execution modes — a torn WAL unit at daemon restart is the same
``torn-checkpoint`` incident a durable batch run reports.  On top of
the incident log sit plain gauges (queue depth, acked batches, snapshot
progress) that describe a *healthy* daemon; gauges never pollute the
incident list, so ``RunHealth.ok`` still means "nothing went wrong".

``healthz``/``readyz`` follow the usual split: *healthz* is "describe
yourself" (always answers, degraded or not); *readyz* is the gate ("may
traffic be routed here"), which drops the moment a supervised task
exhausts its restart budget or shutdown begins.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.parallel.health import (
    DEVICE_QUARANTINED,
    DISK_PRESSURE,
    OVERLOAD_SHED,
    QUEUE_SATURATION,
    SCRUB_DAMAGE,
    SNAPSHOT,
    STORAGE_FAULT,
    TASK_RESTART,
    TORN_CHECKPOINT,
    RunHealth,
    ShardIncident,
    StorageIncident,
)


class ServiceHealth:
    """One daemon's aggregate health: incidents + gauges.

    ``depth_probe`` is injected by the daemon so queue depth is read
    live at report time rather than cached on every transition.
    """

    def __init__(self, depth_probe: Optional[Callable[[], int]] = None) -> None:
        self.run_health = RunHealth()
        self._depth_probe = depth_probe
        self.batches_acked = 0
        self.rows_ingested = 0
        self.batches_replayed = 0
        self.snapshots_completed = 0
        self.last_snapshot_seq = -1
        self.scrubs_completed = 0
        self.last_scrub_verified_ok = -1
        self.ready = False
        self.shutting_down = False

    # -- incident recording (RunHealth kinds) --------------------------------

    def _record(self, kind: str, detail: str, attempt: int = 0) -> None:
        self.run_health.record(
            ShardIncident(shard_index=0, kind=kind, attempt=attempt, detail=detail)
        )

    def note_queue_saturation(self, depth: int, high_watermark: int) -> None:
        self._record(
            QUEUE_SATURATION, f"ingest queue reached {depth}/{high_watermark}"
        )

    def note_shed(self, batch_id: str, retry_after_s: float) -> None:
        self._record(
            OVERLOAD_SHED, f"batch {batch_id!r} shed; retry after {retry_after_s}s"
        )

    def note_task_restart(self, task_name: str, attempt: int, error: str) -> None:
        self._record(TASK_RESTART, f"task {task_name!r}: {error}", attempt=attempt)

    def note_snapshot_failure(self, error: str) -> None:
        self._record(SNAPSHOT, f"snapshot cycle failed: {error}")

    def note_torn_wal(self, detail: str) -> None:
        self._record(TORN_CHECKPOINT, detail)

    def note_device_quarantined(self, detail: str) -> None:
        self._record(DEVICE_QUARANTINED, detail)

    # -- storage incidents (StorageIncident kinds) ----------------------------

    def note_storage_fault(self, op: str, path: str, detail: str) -> None:
        self.run_health.record_storage(
            StorageIncident(kind=STORAGE_FAULT, op=op, path=path, detail=detail)
        )

    def note_disk_pressure(self, free_bytes: int, min_free_bytes: int) -> None:
        """One incident per shedding episode (hysteresis, not per batch)."""
        self.run_health.record_storage(
            StorageIncident(
                kind=DISK_PRESSURE,
                op="write",
                detail=(
                    f"free {free_bytes} bytes below watermark "
                    f"{min_free_bytes}; shedding ingest"
                ),
            )
        )

    def note_scrub_damage(self, detail: str) -> None:
        self.run_health.record_storage(
            StorageIncident(kind=SCRUB_DAMAGE, op="scrub", detail=detail)
        )

    # -- gauges ---------------------------------------------------------------

    def note_ack(self, n_rows: int) -> None:
        self.batches_acked += 1
        self.rows_ingested += n_rows

    def note_snapshot(self, seq: int) -> None:
        self.snapshots_completed += 1
        self.last_snapshot_seq = seq

    def note_scrub(self, n_verified_ok: int) -> None:
        self.scrubs_completed += 1
        self.last_scrub_verified_ok = n_verified_ok

    @property
    def queue_depth(self) -> int:
        return self._depth_probe() if self._depth_probe is not None else 0

    # -- endpoint payloads ----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Liveness report: always answers, flags degradation."""
        rh = self.run_health
        return {
            "status": "ok" if rh.ok else "degraded",
            "queue_depth": self.queue_depth,
            "batches_acked": self.batches_acked,
            "rows_ingested": self.rows_ingested,
            "batches_replayed": self.batches_replayed,
            "snapshots_completed": self.snapshots_completed,
            "last_snapshot_seq": self.last_snapshot_seq,
            "queue_saturations": rh.queue_saturations,
            "shed_batches": rh.shed_batches,
            "task_restarts": rh.task_restarts,
            "snapshot_failures": rh.snapshots,
            "devices_quarantined": rh.devices_quarantined,
            "torn_checkpoints": rh.torn_checkpoints,
            "storage_faults": rh.storage_faults,
            "disk_pressure_events": rh.disk_pressure_events,
            "scrub_damage_events": rh.scrub_damage_events,
            "scrubs_completed": self.scrubs_completed,
            "last_scrub_verified_ok": self.last_scrub_verified_ok,
            "n_incidents": len(rh.incidents) + len(rh.storage_incidents),
            "summary": rh.summary(),
        }

    def readyz(self) -> Dict[str, Any]:
        """Readiness gate: may traffic be routed to this daemon?"""
        ready = self.ready and not self.shutting_down
        return {"ready": ready, "shutting_down": self.shutting_down}
