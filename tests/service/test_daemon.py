"""CatalogDaemon end-to-end: socket API, durable acks, restart recovery.

Each test drives a real daemon over a real loopback socket inside one
``asyncio.run`` — the daemon's own event loop — so daemon internals
(health gauges, queue counters) stay readable without cross-thread
games.  The external, blocking :class:`CatalogClient` gets its own
coverage in the chaos suite where the daemon lives in a subprocess.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.columnar import from_record_streams
from repro.columnar.blocks import pack_day_block
from repro.columnar.store import _by_day
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
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
)
from repro.pipeline import run_pipeline
from repro.runtime.checkpoint import UNITS_DIRNAME
from repro.service import CatalogDaemon, ServiceConfig, ServiceHealth, catalog_digest
from repro.service.protocol import parse_batch_rows

from tests.service.test_protocol import (
    GOOD_RADIO,
    GOOD_SERVICE,
    MISTYPED_ROWS,
    UNREPRESENTABLE_ROWS,
)

FAST_CONFIG = dict(snapshot_interval_s=0.1)


def reference_digest(eco, dataset):
    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    builder = CatalogBuilder(eco.tac_db, eco.uk_sectors, labeler)
    records, summaries = builder.build_from_columns(
        *from_record_streams(dataset.radio_events, dataset.service_records)
    )
    return catalog_digest(records, summaries)


async def request(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
    return json.loads(line.decode("utf-8"))


async def ingest(port, batch_id, rows):
    return await request(
        port, {"op": "ingest", "batch_id": batch_id, "rows": rows}
    )


def test_ingest_matches_uninterrupted_build(tmp_path, svc_eco, svc_dataset, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            total_rows = 0
            for batch_id, rows in svc_batches:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok", response
                assert response["ingest"]["n_quarantined"] == 0
                total_rows += len(rows)
            answer = await request(daemon.port, {"op": "digest"})
            assert daemon.health.batches_acked == len(svc_batches)
            assert daemon.health.rows_ingested == total_rows
            return answer["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(scenario())
    assert digest == reference_digest(svc_eco, svc_dataset)


def test_duplicate_batch_acks_without_reapplying(tmp_path, svc_eco, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            batch_id, rows = svc_batches[0]
            first = await ingest(daemon.port, batch_id, rows)
            again = await ingest(daemon.port, batch_id, rows)
            assert first["status"] == "ok" and "duplicate" not in first
            assert again == {"status": "ok", "duplicate": True}
            assert daemon.health.batches_acked == 1
            assert daemon.wal.next_seq == 1
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_hostile_batch_quarantines_and_acks(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            rows = [
                GOOD_RADIO,
                "garbage",
                dict(GOOD_RADIO, iface="9G"),
                dict(GOOD_SERVICE, duration_s=-1.0),
            ]
            response = await ingest(daemon.port, "b-hostile", rows)
            assert response["status"] == "ok"
            quarantine = response["ingest"]
            assert quarantine["n_rows"] == 4 and quarantine["n_ok"] == 1
            assert quarantine["counts_by_kind"] == {
                "parse": 1, "schema": 1, "semantic": 1,
            }
            # The daemon is still alive and serving.
            health = await request(daemon.port, {"op": "healthz"})
            assert health["healthz"]["batches_acked"] == 1
        finally:
            await daemon.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("name", sorted(UNREPRESENTABLE_ROWS))
def test_row_the_columns_cannot_hold_is_quarantined(tmp_path, svc_eco, name):
    """A NaN timestamp (and its kin) is a semantic quarantine, not a drain
    crash that orphans the ack and stalls the batch id."""
    config = ServiceConfig(batch_deadline_s=2.0, **FAST_CONFIG)

    async def scenario():
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        await daemon.start()
        try:
            rows = [GOOD_RADIO, UNREPRESENTABLE_ROWS[name]]
            response = await ingest(daemon.port, "b-nan", rows)
            assert response["status"] == "ok", response
            assert response["ingest"]["counts_by_kind"] == {"semantic": 1}
            answer = await request(daemon.port, {"op": "query", "device_id": "d0"})
            assert answer["status"] == "ok", answer
            health = (await request(daemon.port, {"op": "healthz"}))["healthz"]
            assert health["batches_acked"] == 1
            assert health["task_restarts"] == 0
        finally:
            await daemon.stop()

    asyncio.run(scenario())


#: ``healthz``'s keys, in the order the daemon serves them.
HEALTHZ_KEYS = [
    "status",
    "queue_depth",
    "batches_acked",
    "rows_ingested",
    "batches_replayed",
    "snapshots_completed",
    "last_snapshot_seq",
    "queue_saturations",
    "shed_batches",
    "task_restarts",
    "snapshot_failures",
    "devices_quarantined",
    "torn_checkpoints",
    "storage_faults",
    "disk_pressure_events",
    "scrub_damage_events",
    "scrubs_completed",
    "last_scrub_verified_ok",
    "n_incidents",
    "summary",
]


def test_healthz_counts_each_incident_kind_under_its_key():
    health = ServiceHealth()
    assert list(health.healthz()) == HEALTHZ_KEYS
    for kind, op in (
        (QUEUE_SATURATION, ""),
        (OVERLOAD_SHED, ""),
        (TASK_RESTART, ""),
        (SNAPSHOT, ""),
        (DEVICE_QUARANTINED, ""),
        (TORN_CHECKPOINT, ""),
        (STORAGE_FAULT, "write"),
        (DISK_PRESSURE, "write"),
        (SCRUB_DAMAGE, "scrub"),
    ):
        health.note(kind, "detail", op=op)
    payload = health.healthz()
    assert list(payload) == HEALTHZ_KEYS
    counters = HEALTHZ_KEYS[7:16]
    assert {key: payload[key] for key in counters} == dict.fromkeys(counters, 1)
    assert (payload["status"], payload["n_incidents"]) == ("degraded", 9)


@pytest.mark.parametrize("name", sorted(MISTYPED_ROWS))
def test_wrongly_typed_row_is_quarantined_and_queries_answer(tmp_path, svc_eco, name):
    """A non-string device id or APN is a schema quarantine: it never
    reaches the WAL, so queries answer before and after a restart."""
    wal_dir = str(tmp_path / "wal")
    config = ServiceConfig(batch_deadline_s=2.0, **FAST_CONFIG)

    async def life(resume):
        daemon = CatalogDaemon(svc_eco, wal_dir, config, resume=resume)
        await daemon.start()
        try:
            if not resume:
                rows = [GOOD_RADIO, MISTYPED_ROWS[name]]
                response = await ingest(daemon.port, "b-typed", rows)
                assert response["status"] == "ok", response
                assert response["ingest"]["counts_by_kind"] == {"schema": 1}
            digest = await request(daemon.port, {"op": "digest"})
            answer = await request(daemon.port, {"op": "query", "device_id": "d0"})
            assert answer["status"] == "ok", answer
            return digest
        finally:
            await daemon.stop()

    first = asyncio.run(life(resume=False))
    assert first["n_devices"] == 1
    assert asyncio.run(life(resume=True)) == first


def test_row_on_a_day_past_int32_folds_and_queries_answer(tmp_path, svc_eco):
    """Any int64 day passes the wire checks, and the fold holds it: a row
    on day 2,314,814,814 once made every later query and digest close
    its connection unanswered (the fold's day column was int32)."""
    far = dict(GOOD_RADIO, ts=2.0e14)
    assert int(far["ts"] // 86400.0) == 2_314_814_814

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            assert (await ingest(daemon.port, "b-near", [GOOD_RADIO]))["status"] == "ok"
            response = await ingest(daemon.port, "b-far", [far])
            assert response["status"] == "ok", response
            assert response["ingest"]["n_quarantined"] == 0
            answer = await request(daemon.port, {"op": "query", "device_id": "d0"})
            assert answer["status"] == "ok", answer
            digest = await request(daemon.port, {"op": "digest"})
            assert digest["status"] == "ok", digest
            return digest["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(scenario())
    radio, service, _ = parse_batch_rows([GOOD_RADIO, far])
    labeler = RoamingLabeler(svc_eco.operators, svc_eco.uk_mno)
    builder = CatalogBuilder(svc_eco.tac_db, svc_eco.uk_sectors, labeler)
    assert digest == catalog_digest(*builder.build_from_columns(radio, service))


def test_malformed_requests_get_typed_errors(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            port = daemon.port
            cases = [
                ({"op": "nope"}, "unknown op"),
                ({"op": "ingest", "rows": []}, "batch_id"),
                ({"op": "ingest", "batch_id": "b", "rows": "x"}, "rows list"),
                ({"op": "query"}, "device_id"),
                ({"op": "footprint"}, "sim_plmn"),
                ({"rows": []}, "unknown op"),
            ]
            for payload, needle in cases:
                response = await request(port, payload)
                assert response["status"] == "error"
                assert needle in response["error"]
            # Non-JSON and non-object lines answer too, then the
            # connection stays usable for well-formed requests.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            bad = json.loads((await reader.readline()).decode("utf-8"))
            assert bad["status"] == "error"
            writer.write(b"[1, 2, 3]\n")
            await writer.drain()
            not_object = json.loads((await reader.readline()).decode("utf-8"))
            assert not_object["status"] == "error"
            writer.write(json.dumps({"op": "readyz"}).encode("utf-8") + b"\n")
            await writer.drain()
            ready = json.loads((await reader.readline()).decode("utf-8"))
            assert ready["readyz"]["ready"] is True
            writer.close()
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_oversized_request_is_rejected_not_fatal(tmp_path, svc_eco):
    async def scenario():
        config = ServiceConfig(max_request_bytes=4096, **FAST_CONFIG)
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            writer.write(b"x" * 10_000 + b"\n")
            await writer.drain()
            response = json.loads((await reader.readline()).decode("utf-8"))
            assert response["status"] == "rejected"
            assert "4096" in response["error"]
            writer.close()
            # The daemon survived and serves fresh connections.
            ready = await request(daemon.port, {"op": "readyz"})
            assert ready["readyz"]["ready"] is True
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_oversized_batch_rejected_by_row_count(tmp_path, svc_eco):
    async def scenario():
        config = ServiceConfig(max_batch_rows=3, **FAST_CONFIG)
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        await daemon.start()
        try:
            response = await ingest(daemon.port, "b-big", [GOOD_RADIO] * 4)
            assert response["status"] == "rejected"
            assert "limit is 3" in response["error"]
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_http_probe_shim(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            async def http_get(path):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1"))
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, body = raw.partition(b"\r\n\r\n")
                status = int(head.split()[1])
                return status, json.loads(body.decode("utf-8"))

            status, body = await http_get("/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = await http_get("/readyz")
            assert status == 200 and body["ready"] is True
            status, body = await http_get("/metrics")
            assert status == 404
            # Readiness drops during shutdown.
            daemon.health.shutting_down = True
            status, body = await http_get("/readyz")
            assert status == 503 and body["ready"] is False
            daemon.health.shutting_down = False
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_backpressure_sheds_with_retry_guidance(tmp_path, svc_eco, svc_batches):
    """With no drain consumer, the queue saturates and ingest sheds."""

    async def scenario():
        config = ServiceConfig(
            queue_high_watermark=2,
            queue_low_watermark=1,
            batch_deadline_s=0.05,
            shed_retry_after_s=0.25,
            **FAST_CONFIG,
        )
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        # Open the WAL but never start the drain loop: every accepted
        # batch stays queued, as if the consumer stalled mid-storm.
        from repro.service.wal import BatchLog

        daemon.wal = BatchLog(str(tmp_path / "wal"))
        try:
            accepted = []
            for index in range(2):
                response = await daemon._op_ingest(
                    {"batch_id": f"b-{index}", "rows": [GOOD_RADIO]}
                )
                assert response["status"] == "retry"  # queued, deadline hit
                accepted.append(response["batch_id"])
            shed = await daemon._op_ingest(
                {"batch_id": "b-over", "rows": [GOOD_RADIO]}
            )
            assert shed["status"] == "shed"
            assert shed["retry_after_s"] == 0.25
            assert shed["queue_depth"] == 2
            health = daemon.health.healthz()
            assert health["status"] == "degraded"
            assert health["queue_saturations"] == 1
            assert health["shed_batches"] == 1
            # A second over-limit batch sheds again but the episode is
            # counted once.
            await daemon._op_ingest({"batch_id": "b-over2", "rows": []})
            assert daemon.health.healthz()["queue_saturations"] == 1
            assert daemon.health.healthz()["shed_batches"] == 2
            # An in-flight duplicate re-send awaits the same pending ack
            # instead of re-queueing.
            again = await daemon._op_ingest(
                {"batch_id": "b-0", "rows": [GOOD_RADIO]}
            )
            assert again["status"] == "retry"
            assert daemon.queue.depth == 2
        finally:
            daemon.wal.close()

    asyncio.run(scenario())


def test_restart_replays_to_identical_catalog(tmp_path, svc_eco, svc_dataset, svc_batches):
    """Stop mid-stream, restart with resume, catalog state is identical."""

    wal_dir = str(tmp_path / "wal")
    half = len(svc_batches) // 2 or 1

    async def first_life():
        daemon = CatalogDaemon(svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG))
        await daemon.start()
        try:
            for batch_id, rows in svc_batches[:half]:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok"
            answer = await request(daemon.port, {"op": "digest"})
            return answer["digest"]
        finally:
            await daemon.stop()

    async def second_life():
        daemon = CatalogDaemon(
            svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG), resume=True
        )
        await daemon.start()
        try:
            assert daemon.health.batches_replayed == half
            replayed = await request(daemon.port, {"op": "digest"})
            # Acked batches re-sent after restart dedupe durably.
            dup = await ingest(daemon.port, *svc_batches[0])
            assert dup == {"status": "ok", "duplicate": True}
            # The rest of the stream ingests normally.
            for batch_id, rows in svc_batches[half:]:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok"
            final = await request(daemon.port, {"op": "digest"})
            return replayed["digest"], final["digest"]
        finally:
            await daemon.stop()

    digest_before = asyncio.run(first_life())
    digest_replayed, digest_final = asyncio.run(second_life())
    assert digest_replayed == digest_before
    assert digest_final == reference_digest(svc_eco, svc_dataset)


def test_query_and_footprint_answers(tmp_path, svc_eco, svc_dataset, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            for batch_id, rows in svc_batches:
                await ingest(daemon.port, batch_id, rows)
            device_id = svc_dataset.radio_events[0].device_id
            answer = await request(
                daemon.port, {"op": "query", "device_id": device_id}
            )
            assert answer["status"] == "ok"
            assert answer["device_id"] == device_id
            assert ":" in answer["label"]  # "<X:Y>" roaming label
            assert answer["class"]
            assert answer["active_days"] >= 1
            missing = await request(
                daemon.port, {"op": "query", "device_id": "no-such-device"}
            )
            assert missing["status"] == "not_found"

            sim_plmn = answer["sim_plmn"]
            footprint = await request(
                daemon.port, {"op": "footprint", "sim_plmn": sim_plmn}
            )
            assert footprint["status"] == "ok"
            assert footprint["n_devices"] >= 1
            assert sum(footprint["labels"].values()) == footprint["n_devices"]
            assert sum(footprint["classes"].values()) == footprint["n_devices"]
            empty = await request(
                daemon.port, {"op": "footprint", "sim_plmn": "00000"}
            )
            assert empty["n_devices"] == 0
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_query_during_a_fold_never_delays_its_ack(tmp_path, svc_eco, monkeypatch):
    """A query that lands while a batch folds reads the catalog as of the
    last reply, so the snapshot the fold costs runs after its ack is
    written, whatever the order the event loop resumes the two; the
    next query sees the batch."""
    log = []
    write = asyncio.StreamWriter.write

    def logged_write(self, data):
        if b'"seq"' in data:
            log.append("ack")
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", logged_write)

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        snapshot = daemon._builder.snapshot
        fold = daemon._apply_columns

        def logged_snapshot(*args, **kwargs):
            log.append("snapshot")
            return snapshot(*args, **kwargs)

        daemon._builder.snapshot = logged_snapshot
        try:
            assert (await ingest(daemon.port, "b-0", [GOOD_RADIO]))["status"] == "ok"
            first = await request(daemon.port, {"op": "query", "device_id": "d0"})
            assert first["status"] == "ok"
            # A connection the daemon has accepted, whose query line is
            # sent while the next batch folds.
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            line = json.dumps({"op": "query", "device_id": "d1"}).encode("utf-8")

            def fold_then_query(radio, service):
                fold(radio, service)
                log.append("fold")
                writer.write(line + b"\n")

            daemon._apply_columns = fold_then_query
            ack = await ingest(daemon.port, "b-1", [dict(GOOD_RADIO, device_id="d1")])
            assert ack["status"] == "ok"
            assert json.loads(await reader.readline())["status"] in ("ok", "not_found")
            writer.close()
            after = await request(daemon.port, {"op": "query", "device_id": "d1"})
            assert after["status"] == "ok"
        finally:
            await daemon.stop()

    asyncio.run(scenario())
    since_fold = log[log.index("fold"):]
    assert since_fold.index("ack") < since_fold.index("snapshot"), log


def test_shutdown_op_stops_the_daemon(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        port = daemon.port
        response = await request(port, {"op": "shutdown"})
        assert response == {"status": "ok", "op": "shutdown"}
        await asyncio.wait_for(daemon.serve_until_stopped(), timeout=5.0)
        assert daemon.health.shutting_down
        assert not daemon.health.readyz()["ready"]
        with pytest.raises(OSError):
            await request(port, {"op": "readyz"})

    asyncio.run(scenario())


def test_supervisor_failure_drops_readiness(tmp_path, svc_eco):
    """A drain loop that dies permanently surfaces through serve_until_stopped."""

    async def scenario():
        config = ServiceConfig(
            restart_max_attempts=1,
            restart_base_delay_s=0.001,
            restart_max_delay_s=0.01,
            **FAST_CONFIG,
        )
        # on_batch seam raising models a poisoned WAL append path.
        daemon = CatalogDaemon(
            svc_eco,
            str(tmp_path / "wal"),
            config,
            on_batch=lambda batch_id, seq: (_ for _ in ()).throw(
                RuntimeError("wal device gone")
            ),
        )
        await daemon.start()
        serve = asyncio.get_running_loop().create_task(
            daemon.serve_until_stopped()
        )
        try:
            # First crash consumes the restart budget; the second is
            # terminal (each poisoned batch kills the drain loop once).
            for index in range(2):
                response = await ingest(daemon.port, f"b-{index}", [GOOD_RADIO])
                assert response["status"] in ("error", "retry")
            with pytest.raises(RuntimeError, match="drain"):
                await asyncio.wait_for(serve, timeout=5.0)
            assert daemon.health.run_health.count(TASK_RESTART) >= 1
            assert not daemon.health.readyz()["ready"]
        finally:
            serve.cancel()
            await daemon.stop()

    asyncio.run(scenario())


def test_snapshot_loop_advances_watermark(tmp_path, svc_eco, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            await ingest(daemon.port, *svc_batches[0])
            # A cycle that ran before the ack reports watermark -1; wait
            # for one that covers the acked batch.
            for _ in range(100):
                if daemon.health.last_snapshot_seq >= 0:
                    break
                await asyncio.sleep(0.05)
            assert daemon.health.snapshots_completed > 0
            assert daemon.health.last_snapshot_seq == 0  # one batch: seq 0
        finally:
            await daemon.stop()

    asyncio.run(scenario())


#: A foreign SIM seen only on a foreign network: no roaming label fits,
#: so the device's summary raises (the lenient benchmark's poison row).
POISON_SERVICE = dict(
    GOOD_SERVICE, device_id="poison", sim_plmn="26202", visited_plmn="20801"
)


def lenient_reference_digest(eco, dataset, rows):
    radio, service, report = parse_batch_rows(rows)
    assert report.n_quarantined == 0
    events, records = radio.to_rows(), service.to_rows()
    result = run_pipeline(
        dataclasses.replace(dataset, radio_events=events, service_records=records),
        eco,
        lenient=True,
        n_workers=1,
    )
    return catalog_digest(result.day_records, result.summaries)


def test_unlabelable_device_is_quarantined_not_fatal(
    tmp_path, svc_eco, svc_dataset
):
    """One unlabelable device is quarantined at snapshot: the ack is ok,
    the device gets one typed incident, and a restart replays cleanly."""
    wal_dir = str(tmp_path / "wal")
    rows = [GOOD_RADIO, POISON_SERVICE]
    config = ServiceConfig(batch_deadline_s=2.0, **FAST_CONFIG)

    async def first_life():
        daemon = CatalogDaemon(svc_eco, wal_dir, config)
        await daemon.start()
        try:
            response = await ingest(daemon.port, "b-poison", rows)
            assert response["status"] == "ok", response
            digest = await request(daemon.port, {"op": "digest"})
            answer = await request(daemon.port, {"op": "query", "device_id": "poison"})
            assert answer["status"] == "quarantined"
            assert "unobservable" in answer["error"]
            good = await request(daemon.port, {"op": "query", "device_id": "d0"})
            assert good["status"] == "ok"
            health = (await request(daemon.port, {"op": "healthz"}))["healthz"]
            assert health["devices_quarantined"] == 1
            assert health["task_restarts"] == 0
            kinds = [i.kind for i in daemon.health.run_health.incidents]
            assert kinds == ["device-quarantined"]
            return digest
        finally:
            await daemon.stop()

    async def second_life():
        daemon = CatalogDaemon(svc_eco, wal_dir, config, resume=True)
        await daemon.start()
        try:
            assert daemon.health.batches_replayed == 1
            replayed = await request(daemon.port, {"op": "digest"})
            # A home-network radio event makes the device labelable (an
            # inbound roamer); it leaves quarantine at the next snapshot.
            cured = dict(GOOD_RADIO, device_id="poison", sim_plmn="26202", ts=12.0)
            response = await ingest(daemon.port, "b-cure", [cured])
            assert response["status"] == "ok"
            answer = await request(daemon.port, {"op": "query", "device_id": "poison"})
            assert answer["status"] == "ok"
            final = await request(daemon.port, {"op": "digest"})
            return replayed, final
        finally:
            await daemon.stop()

    digest = asyncio.run(first_life())
    assert digest["digest"] == lenient_reference_digest(svc_eco, svc_dataset, rows)
    assert digest["n_devices"] == 1
    replayed, final = asyncio.run(second_life())
    assert replayed == digest
    assert final["n_devices"] == 2
    cured = dict(GOOD_RADIO, device_id="poison", sim_plmn="26202", ts=12.0)
    assert final["digest"] == lenient_reference_digest(
        svc_eco, svc_dataset, rows + [cured]
    )


def test_device_whose_day_records_fail_is_quarantined_not_fatal(
    tmp_path, svc_eco, monkeypatch
):
    """A device whose day records cannot be built is quarantined at the
    catalog stage at snapshot; every other device still answers."""
    original = CatalogBuilder._device_records

    def failing_for_victim(self, device_id, *args):
        if device_id == "victim":
            raise RuntimeError("catalog stage down for victim")
        return original(self, device_id, *args)

    monkeypatch.setattr(CatalogBuilder, "_device_records", failing_for_victim)
    rows = [GOOD_RADIO, GOOD_SERVICE, dict(GOOD_RADIO, device_id="victim")]

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            response = await ingest(daemon.port, "b-victim", rows)
            assert response["status"] == "ok", response
            answer = await request(daemon.port, {"op": "query", "device_id": "victim"})
            assert answer["status"] == "quarantined"
            assert answer["error"] == "RuntimeError: catalog stage down for victim"
            good = await request(daemon.port, {"op": "query", "device_id": "d0"})
            assert good["status"] == "ok"
            health = (await request(daemon.port, {"op": "healthz"}))["healthz"]
            assert health["devices_quarantined"] == 1
            incidents = daemon.health.run_health.incidents
            assert [i.kind for i in incidents] == ["device-quarantined"]
            assert "victim@catalog" in incidents[0].detail
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_fold_is_o_batch(tmp_path, svc_eco, svc_batches):
    """Each row reaches ``CatalogBuilder.update`` once, and summaries are
    built (``_summarize_devices``) only inside ``snapshot``: the fold
    never re-reads a day."""
    update_rows = []
    summarize_outside_snapshot = []

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        builder = daemon._builder
        update, snapshot, summarize = (
            builder.update, builder.snapshot, builder._summarize_devices
        )
        in_snapshot = []

        def counting_update(day, radio_events, service_records):
            update_rows.append(len(radio_events) + len(service_records))
            return update(day, radio_events, service_records)

        def marked_snapshot(*args, **kwargs):
            in_snapshot.append(True)
            try:
                return snapshot(*args, **kwargs)
            finally:
                in_snapshot.pop()

        def checked_summarize(*args, **kwargs):
            summarize_outside_snapshot.append(not in_snapshot)
            return summarize(*args, **kwargs)

        builder.update = counting_update
        builder.snapshot = marked_snapshot
        builder._summarize_devices = checked_summarize
        await daemon.start()
        try:
            for batch_id, rows in svc_batches:
                # Halve each day so a day arrives as several batches.
                for half, part in enumerate((rows[0::2], rows[1::2])):
                    response = await ingest(daemon.port, f"{batch_id}-{half}", part)
                    assert response["status"] == "ok"
                await request(daemon.port, {"op": "query", "device_id": "d0"})
            await request(daemon.port, {"op": "digest"})
            return daemon.health.rows_ingested
        finally:
            await daemon.stop()

    rows_acked = asyncio.run(scenario())
    assert sum(update_rows) == rows_acked
    assert summarize_outside_snapshot and not any(summarize_outside_snapshot)


def test_by_day_groups_rows_like_the_row_loop():
    """The numpy grouping equals a per-row loop, batch order kept per day."""
    rows = [dict(GOOD_RADIO, ts=86400.0 * day + i) for i, day in enumerate([2, 0, 2, 1, 0])]
    radio, service, _ = parse_batch_rows(rows)
    expected = {}
    for index, day in enumerate(radio.days):
        expected.setdefault(day, []).append(index)
    groups = _by_day(radio)
    assert sorted(groups) == [0, 1, 2]
    assert all(type(day) is int for day in groups)
    for day, indices in expected.items():
        assert groups[day].to_rows() == radio.rows_at(indices)
    assert _by_day(service) == {}
    single_day = parse_batch_rows([GOOD_RADIO])[0]
    assert _by_day(single_day) == {0: single_day}


def test_wal_unit_matches_pack_day_block(tmp_path, svc_eco, svc_batches):
    """A live batch is interned once; the WAL packs those stores into
    the same bytes ``pack_day_block`` writes for its rows, folded or not."""
    wal_dir = tmp_path / "wal"
    batch_id, rows = svc_batches[0]

    async def scenario():
        daemon = CatalogDaemon(svc_eco, str(wal_dir), ServiceConfig(**FAST_CONFIG))
        await daemon.start()
        try:
            assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"
            # Snapshotting after the fold must not touch the packed pools.
            await request(daemon.port, {"op": "digest"})
        finally:
            await daemon.stop()

    asyncio.run(scenario())
    radio, service, _ = parse_batch_rows(rows, source=batch_id)
    events, records = radio.to_rows(), service.to_rows()
    unit = wal_dir / UNITS_DIRNAME / "day_000.shard_000.ckpt"
    assert unit.read_bytes() == pack_day_block(events, records)


def test_wal_of_row_packed_blocks_replays(
    tmp_path, monkeypatch, svc_eco, svc_dataset, svc_batches
):
    """A WAL whose blocks were packed from rows (``pack_day_block``)
    replays to the uninterrupted catalog."""
    wal_dir = str(tmp_path / "wal")

    async def write_life():
        daemon = CatalogDaemon(svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG))
        await daemon.start()
        try:
            for batch_id, rows in svc_batches:
                assert (await ingest(daemon.port, batch_id, rows))["status"] == "ok"
        finally:
            await daemon.stop()

    async def replay_life():
        daemon = CatalogDaemon(
            svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG), resume=True
        )
        await daemon.start()
        try:
            assert daemon.health.batches_replayed == len(svc_batches)
            return (await request(daemon.port, {"op": "digest"}))["digest"]
        finally:
            await daemon.stop()

    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.service.wal.pack_columns",
            lambda events, records: pack_day_block(
                events.to_rows(), records.to_rows()
            ),
        )
        asyncio.run(write_life())
    assert asyncio.run(replay_life()) == reference_digest(svc_eco, svc_dataset)
