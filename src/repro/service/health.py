"""Service-level health: RunHealth incidents plus liveness gauges.

The daemon records each incident once, as the batch runtime's
:class:`repro.parallel.health.Incident`, in a
:class:`~repro.parallel.health.RunHealth` (:meth:`ServiceHealth.note`),
so one vocabulary covers both execution modes — a torn WAL unit at
daemon restart is the same ``torn-checkpoint`` incident a durable batch
run reports — and ``healthz`` counts them by kind.  On top of the incident
log sit plain gauges (queue depth, acked batches, snapshot progress)
that describe a *healthy* daemon; gauges never pollute the incident
list, so ``RunHealth.ok`` still means "nothing went wrong".

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
    Incident,
    RunHealth,
)

#: ``healthz`` counter key -> the incident kind it counts, in payload order.
_HEALTHZ_COUNTS = (
    ("queue_saturations", QUEUE_SATURATION),
    ("shed_batches", OVERLOAD_SHED),
    ("task_restarts", TASK_RESTART),
    ("snapshot_failures", SNAPSHOT),
    ("devices_quarantined", DEVICE_QUARANTINED),
    ("torn_checkpoints", TORN_CHECKPOINT),
    ("storage_faults", STORAGE_FAULT),
    ("disk_pressure_events", DISK_PRESSURE),
    ("scrub_damage_events", SCRUB_DAMAGE),
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

    def note(
        self, kind: str, detail: str, attempt: int = 0, op: str = "", path: str = ""
    ) -> None:
        """Record one incident; storage kinds name their ``op``."""
        self.run_health.record(Incident(kind, detail, attempt=attempt, op=op, path=path))

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
            **{key: rh.count(kind) for key, kind in _HEALTHZ_COUNTS},
            "scrubs_completed": self.scrubs_completed,
            "last_scrub_verified_ok": self.last_scrub_verified_ok,
            "n_incidents": len(rh.incidents),
            "summary": rh.summary(),
        }

    def readyz(self) -> Dict[str, Any]:
        """Readiness gate: may traffic be routed to this daemon?"""
        ready = self.ready and not self.shutting_down
        return {"ready": ready, "shutting_down": self.shutting_down}
