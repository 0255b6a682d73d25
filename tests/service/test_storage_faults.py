"""Daemon storage hardening: disk watermarks, WAL faults, live scrub.

Same harness as ``test_daemon.py`` — a real daemon on a real loopback
socket inside one ``asyncio.run`` — plus the fsfault seam: the injector
is process-global, so faults installed here fire inside the daemon's
``asyncio.to_thread`` WAL writes too.
"""

import asyncio

from repro.faults.fsfault import EIO_READ, ENOSPC, FsFault, FsFaultPlan, install
from repro.parallel.health import DISK_PRESSURE, SCRUB_DAMAGE, STORAGE_FAULT
from repro.service import CatalogDaemon, ServiceConfig

from tests.service.test_daemon import FAST_CONFIG, ingest, request


def test_disk_watermarks_shed_with_hysteresis(tmp_path, svc_eco, svc_batches):
    free = {"bytes": 10_000_000}

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco,
            str(tmp_path / "wal"),
            ServiceConfig(
                disk_min_free_bytes=1_000_000,
                disk_resume_free_bytes=5_000_000,
                **FAST_CONFIG,
            ),
            disk_probe=lambda: free["bytes"],
        )
        await daemon.start()
        try:
            batches = iter(svc_batches)
            batch_id, rows = next(batches)
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"

            free["bytes"] = 900_000  # below the min watermark: shed
            batch_id, rows = next(batches)
            shed = await ingest(daemon.port, batch_id, rows)
            assert shed["status"] == "shed"
            assert shed["retry_after_s"] == daemon.config.shed_retry_after_s
            assert shed["free_bytes"] == 900_000

            free["bytes"] = 3_000_000  # between the watermarks: still shed
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "shed"

            free["bytes"] = 6_000_000  # past the resume watermark: accept
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"

            health = (await request(daemon.port, {"op": "healthz"}))["healthz"]
            # One incident for the whole episode, one count per shed batch.
            assert health["disk_pressure_events"] == 1
            assert health["shed_batches"] == 2
            incidents = [i for i in daemon.health.run_health.incidents if i.op]
            assert [i.kind for i in incidents] == [DISK_PRESSURE]
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_wal_write_fault_is_typed_incident_and_retryable(
    tmp_path, svc_eco, svc_batches
):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            batch_id, rows = svc_batches[0]
            plan = FsFaultPlan(faults=(FsFault(ENOSPC, match="wal", times=1),))
            with install(plan):
                failed = await ingest(daemon.port, batch_id, rows)
            assert failed["status"] != "ok"
            health = daemon.health.healthz()
            assert health["storage_faults"] == 1
            incidents = [i for i in daemon.health.run_health.incidents if i.op]
            assert [i.kind for i in incidents] == [STORAGE_FAULT]
            assert "ENOSPC" in incidents[0].detail or "28" in incidents[0].detail
            # The batch was never acked; the same id re-sends cleanly
            # (the supervisor has restarted the drain loop by now).
            for _ in range(50):
                retried = await ingest(daemon.port, batch_id, rows)
                if retried["status"] == "ok":
                    break
                await asyncio.sleep(0.05)
            assert retried["status"] == "ok"
            assert daemon.wal.next_seq == 1
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_scrub_loop_verifies_live_wal(tmp_path, svc_eco, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco,
            str(tmp_path / "wal"),
            ServiceConfig(scrub_interval_s=0.05, **FAST_CONFIG),
        )
        await daemon.start()
        try:
            batch_id, rows = svc_batches[0]
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"
            for _ in range(100):
                await asyncio.sleep(0.05)
                if daemon.health.scrubs_completed and (
                    daemon.health.last_scrub_verified_ok >= 1
                ):
                    break
            health = daemon.health.healthz()
            assert health["scrubs_completed"] >= 1
            assert health["last_scrub_verified_ok"] >= 1
            assert health["scrub_damage_events"] == 0
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_scrub_loop_surfaces_at_rest_rot(tmp_path, svc_eco, svc_batches):
    wal_dir = tmp_path / "wal"

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco,
            str(wal_dir),
            ServiceConfig(scrub_interval_s=0.05, **FAST_CONFIG),
        )
        await daemon.start()
        try:
            batch_id, rows = svc_batches[0]
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"
            unit = sorted((wal_dir / "units").glob("*.ckpt"))[0]
            data = bytearray(unit.read_bytes())
            data[-20] ^= 0xFF
            unit.write_bytes(bytes(data))
            for _ in range(100):
                await asyncio.sleep(0.05)
                if daemon.health.healthz()["scrub_damage_events"]:
                    break
            health = daemon.health.healthz()
            assert health["scrub_damage_events"] >= 1
            kinds = {
                i.kind for i in daemon.health.run_health.incidents if i.op
            }
            assert kinds == {SCRUB_DAMAGE}
            # Verify-only: the scrubber never rewrites the hot store.
            assert unit.read_bytes() == bytes(data)
            # The daemon keeps serving; rot is an incident, not a crash.
            assert (await request(daemon.port, {"op": "readyz"}))["readyz"][
                "ready"
            ]
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_scrub_loop_reports_an_unreadable_journal_and_keeps_running(
    tmp_path, svc_eco, svc_batches
):
    """A journal the scrub cannot read is one ``storage-fault`` incident
    per cycle (op ``scrub``); the scrub task never crashes, so nothing
    restarts and the supervisor never fails."""

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco,
            str(tmp_path / "wal"),
            ServiceConfig(scrub_interval_s=0.01, **FAST_CONFIG),
        )
        await daemon.start()
        try:
            batch_id, rows = svc_batches[0]
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"
            plan = FsFaultPlan(
                faults=(FsFault(EIO_READ, match="journal.jsonl", times=-1),)
            )
            with install(plan):
                # Outlast the scrub task's whole restart budget.
                for _ in range(250):
                    await asyncio.sleep(0.02)
                    if daemon.health.healthz()["storage_faults"] >= 10:
                        break
            health = daemon.health.healthz()
            assert health["storage_faults"] >= 10
            assert health["task_restarts"] == 0
            assert not daemon.supervisor.failed.is_set()
            assert {(i.kind, i.op) for i in daemon.health.run_health.incidents} == {
                (STORAGE_FAULT, "scrub")
            }
            assert (await request(daemon.port, {"op": "readyz"}))["readyz"]["ready"]
        finally:
            await daemon.stop()

    asyncio.run(scenario())
