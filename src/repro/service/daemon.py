"""The catalog daemon: supervised ingest, durable acks, point queries.

:class:`CatalogDaemon` keeps one incremental
:class:`repro.core.catalog.CatalogBuilder` alive behind a line-JSON
socket API (see :mod:`repro.service.protocol`).  The data path is::

    client ──ingest──▶ parse into columns (lenient) ──▶ BoundedIngestQueue
                                                          │ (watermarks; shed)
                                              drain loop (supervised)
                                                          │ WAL append  ◀─ ack here
                                                          ▼
                                              CatalogBuilder.update(day, columns)

The ack is released only after the batch's rows are journaled in the
write-ahead log (:class:`repro.service.wal.BatchLog`) — a SIGKILL at
any instant loses only unacknowledged batches, which clients re-send
under their batch id (idempotent).  On restart the WAL replays into a
fresh builder, reproducing byte-for-byte the catalog state every ack
ever promised.

Each batch is parsed straight into its own checked column stores
(:func:`~repro.service.protocol.parse_batch_rows`, fresh pools): the
queue carries those stores, the WAL packs them and the fold scans them,
and WAL replay folds the decoded blocks the same way.  The fold splits a
batch by its ``days`` column and appends each day's delta to the builder's
rows of that day, so it costs O(batch), and ingest is commutative
because the catalog kernel sorts what it sums: any arrival order of the
same rows — concurrent clients, retried sheds, out-of-order re-sends —
yields the value-identical catalog.  Queries snapshot the builder,
which re-derives only the device-days touched since the last query; a
device whose day records or summary fail there (say, an
unlabelable SIM/network pair) is quarantined with a
``device-quarantined`` incident instead of taking the daemon down.

Queries read the catalog as of the daemon's last reply: a fold is
published to them just before the next reply is written (normally its
own ack), or at once when no request waits for its ack.  A client
holding an ack always reads its batch, and the snapshot and reclassify
that a fold costs the next query never runs between the fold and its
ack, so an ack's latency does not depend on when queries happen to
arrive.

Blocking work (WAL file I/O) runs via ``asyncio.to_thread``; catalog
folds are pure CPU on in-memory state and run inline on the loop.  All
background coroutines live under :class:`TaskSupervisor` — lint rule
``SVC001`` bans bare ``asyncio.create_task`` in this package.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, TypeVar

import numpy as np

from repro.columnar.store import ColumnarRadioEvents, ColumnarServiceRecords
from repro.core.catalog import CatalogBuilder, DeviceDayRecord, DeviceSummary
from repro.core.classifier import Classification, DeviceClassifier
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import Ecosystem
from repro.faults.retry import RetryPolicy
from repro.runtime.checkpoint import BeforeReplace
from repro.runtime.scrub import scrub_store
from repro.service.config import ServiceConfig
from repro.service.health import ServiceHealth
from repro.service.protocol import parse_batch_rows, report_payload
from repro.service.queue import BoundedIngestQueue, OverloadShed
from repro.service.supervisor import TaskSupervisor
from repro.service.wal import BatchLog

#: Seam invoked with (batch_id, seq) just before a batch's WAL append —
#: chaos tests hang a KillSwitch here to die mid-publication.
OnBatch = Optional[Callable[[str, int], None]]

_HTTP_PATHS = {"/healthz": "healthz", "/readyz": "readyz"}


#: Either column store: a batch splits both by day the same way.
_Store = TypeVar("_Store", ColumnarRadioEvents, ColumnarServiceRecords)


def _by_day(store: _Store) -> Dict[int, _Store]:
    """The store's rows per day; the store itself when it holds one day.

    A day's rows keep their batch order (a stable sort by day).
    """
    days = np.frombuffer(store.days, dtype=np.int64)
    if not len(days):
        return {}
    if days.min() == days.max():
        return {int(days[0]): store}
    order = np.argsort(days, kind="stable")
    starts = np.flatnonzero(np.diff(days[order])) + 1
    return {int(days[rows[0]]): store.select(rows) for rows in np.split(order, starts)}


def catalog_digest(
    records: List[DeviceDayRecord], summaries: Mapping[str, DeviceSummary]
) -> str:
    """Canonical SHA-256 of a catalog's full state.

    Order-independent where the catalog is (frozensets are sorted) and
    exact where it matters (floats via ``repr``, never rounded) — two
    catalogs digest equal iff they are value-identical, which is the
    equality the chaos harness asserts between an interrupted-and-
    recovered daemon and an uninterrupted run.
    """
    hasher = hashlib.sha256()
    for r in records:
        mobility = (
            (repr(r.mobility.gyration_km), r.mobility.n_sectors)
            if r.mobility is not None
            else None
        )
        hasher.update(
            repr((
                r.device_id, r.day, r.sim_plmn, sorted(r.visited_plmns),
                r.n_events, r.n_failed_events, r.n_calls,
                repr(r.voice_minutes), r.n_data_sessions, r.bytes_total,
                sorted(r.apns), r.radio_flags.mask, r.voice_flags.mask,
                r.data_flags.mask, mobility, r.on_home_network,
            )).encode("utf-8")
        )
    for device_id in sorted(summaries):
        s = summaries[device_id]
        hasher.update(
            repr((
                s.device_id, s.sim_plmn, str(s.label), s.active_days,
                s.n_events, s.n_failed_events, s.n_calls,
                repr(s.voice_minutes), s.n_data_sessions, s.bytes_total,
                sorted(s.apns), sorted(s.visited_plmns),
                s.radio_flags.mask, s.voice_flags.mask, s.data_flags.mask,
                s.tac,
                None if s.mean_gyration_km is None else repr(s.mean_gyration_km),
            )).encode("utf-8")
        )
    return hasher.hexdigest()


@dataclass
class _PendingBatch:
    """One accepted batch waiting in the queue for its durable ack."""

    batch_id: str
    radio_events: ColumnarRadioEvents
    service_records: ColumnarServiceRecords
    ack: "asyncio.Future[int]" = field(repr=False)
    #: Requests awaiting the ack; while any does, the fold is published
    #: with the next reply instead of at once.
    waiters: int = 0


class CatalogDaemon:
    """One live catalog service instance.

    ``before_replace`` and ``on_batch`` are fault seams threaded to the
    WAL's :class:`repro.runtime.checkpoint.CheckpointStore` and the
    drain loop respectively; production leaves both None.
    """

    def __init__(
        self,
        ecosystem: Ecosystem,
        checkpoint_dir: str,
        config: Optional[ServiceConfig] = None,
        resume: bool = False,
        seed: int = 0,
        before_replace: BeforeReplace = None,
        on_batch: OnBatch = None,
        disk_probe: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._checkpoint_dir = checkpoint_dir
        self._resume = resume
        self._before_replace = before_replace
        self._on_batch = on_batch
        #: Free bytes on the WAL volume; injectable so tests drive the
        #: watermarks without filling a real disk.
        self._disk_probe = disk_probe
        #: Hysteresis latch for disk shedding, mirroring the queue's:
        #: set when free space drops below ``disk_min_free_bytes``,
        #: cleared only past ``disk_resume_free_bytes``.
        self._disk_shedding = False
        labeler = RoamingLabeler(ecosystem.operators, ecosystem.uk_mno)
        self._builder = CatalogBuilder(
            ecosystem.tac_db, ecosystem.uk_sectors, labeler
        )
        self._classifier = DeviceClassifier()
        self.queue: BoundedIngestQueue[_PendingBatch] = BoundedIngestQueue(
            self.config.queue_high_watermark,
            self.config.queue_low_watermark,
            self.config.shed_retry_after_s,
        )
        self.health = ServiceHealth(depth_probe=lambda: self.queue.depth)
        self.supervisor = TaskSupervisor(
            RetryPolicy(
                base_delay_s=self.config.restart_base_delay_s,
                max_delay_s=self.config.restart_max_delay_s,
                max_attempts=self.config.restart_max_attempts,
                jitter=0.5,
            ),
            np.random.default_rng(seed),
            on_restart=self._record_restart,
        )
        self.wal: Optional[BatchLog] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional["asyncio.Task[None]"] = None
        #: Batches accepted but not yet durable, keyed by batch id —
        #: a concurrent re-send awaits the in-flight ack instead of
        #: double-applying the rows.
        self._pending: Dict[str, _PendingBatch] = {}
        #: Query caches, invalidated by every published fold.
        self._dirty = True
        #: A fold is waiting for the next reply to be published.
        self._unpublished = False
        self._cached_records: List[DeviceDayRecord] = []
        self._cached_summaries: Dict[str, DeviceSummary] = {}
        self._cached_classes: Dict[str, Classification] = {}

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not serving")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Open (or resume) the WAL, replay it, and begin serving."""
        self._stopped = asyncio.Event()
        self.wal = await asyncio.to_thread(
            BatchLog,
            self._checkpoint_dir,
            self._resume,
            self._before_replace,
        )
        replayed = await asyncio.to_thread(self.wal.replay)
        for batch in replayed:
            self._apply_columns(batch.radio_events, batch.service_records)
            self.health.batches_replayed += 1
        if self.wal.n_torn_journal_lines:
            self.health.note_torn_wal(
                f"WAL journal torn tail: {self.wal.n_torn_journal_lines} "
                "line(s) discarded"
            )
        if self.wal.n_torn_units:
            self.health.note_torn_wal(
                f"{self.wal.n_torn_units} WAL unit(s) failed CRC and were "
                "discarded (never acknowledged)"
            )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_request_bytes,
        )
        self.supervisor.supervise("drain", self._drain_loop)
        self.supervisor.supervise("snapshot", self._snapshot_loop)
        if self.config.scrub_interval_s > 0:
            self.supervisor.supervise("scrub", self._scrub_loop)
        self.health.ready = True

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, sync the WAL, fail pending."""
        self.health.shutting_down = True
        self.health.ready = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.supervisor.shutdown()
        for pending in self.queue.drain_nowait():
            if not pending.ack.done():
                pending.ack.set_exception(
                    ConnectionError("daemon stopped before the batch was durable")
                )
        if self.wal is not None:
            await asyncio.to_thread(self.wal.sync)
            await asyncio.to_thread(self.wal.close)
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` completes or the supervisor fails."""
        if self._stopped is None:
            raise RuntimeError("daemon was never started")
        stopped = asyncio.get_running_loop().create_task(self._stopped.wait())
        failed = asyncio.get_running_loop().create_task(
            self.supervisor.failed.wait()
        )
        try:
            await asyncio.wait(
                {stopped, failed}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (stopped, failed):
                task.cancel()
        if self.supervisor.failed.is_set():
            self.health.ready = False
            raise RuntimeError(self.supervisor.failure or "supervised task failed")

    # -- catalog state ---------------------------------------------------------

    def _apply_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> None:
        """Fold one batch's column stores into the catalog, day by day.

        Live batches and WAL replay both land here.  Each day's rows go
        to :meth:`CatalogBuilder.update` as one delta; a single-day
        batch (the usual case) is passed whole, without a copy.  The
        caller publishes the fold to queries (replay runs before the
        first query, whose caches start stale).
        """
        radio = _by_day(radio_events)
        service = _by_day(service_records)
        pools = radio_events.pools
        for day in sorted(radio.keys() | service.keys()):
            self._builder.update(
                day,
                radio[day] if day in radio else ColumnarRadioEvents(pools),
                service[day] if day in service else ColumnarServiceRecords(pools),
            )

    def _refresh_caches(self) -> None:
        if not self._dirty:
            return
        before = set(self._builder.quarantined)
        self._cached_records, self._cached_summaries = self._builder.snapshot(
            lenient=True
        )
        for device_id, failure in self._builder.quarantined.items():
            if device_id not in before:
                self.health.note_device_quarantined(str(failure))
        # Classification is population-wide (property propagation), so
        # the point query's class comes from one full, cached pass.
        self._cached_classes = self._classifier.classify(self._cached_summaries)
        self._dirty = False

    # -- supervised loops ------------------------------------------------------

    async def _drain_loop(self) -> None:
        """Consume the queue: WAL append (durable), then catalog fold."""
        assert self.wal is not None
        while True:
            pending = await self.queue.get()
            radio, service = pending.radio_events, pending.service_records
            try:
                if self._on_batch is not None:
                    self._on_batch(pending.batch_id, self.wal.next_seq)
                seq = await asyncio.to_thread(
                    self.wal.append, pending.batch_id, radio, service
                )
            except Exception as exc:
                if isinstance(exc, OSError):
                    # A disk-level append failure is a typed storage
                    # incident, not just a failed batch: the WAL left no
                    # torn state (save_unit is atomic; a failed journal
                    # append repairs itself), the batch is never acked,
                    # and the client re-sends under the same id.
                    self.health.note_storage_fault(
                        "write", self._checkpoint_dir, repr(exc)
                    )
                if not pending.ack.done():
                    pending.ack.set_exception(exc)
                raise
            self._apply_columns(radio, service)
            if pending.waiters:
                self._unpublished = True
            else:
                self._dirty = True
            self.health.note_ack(len(radio) + len(service))
            self._pending.pop(pending.batch_id, None)
            if not pending.ack.done():
                pending.ack.set_result(seq)

    async def _snapshot_loop(self) -> None:
        """Periodic durable snapshot: fsync the WAL journal."""
        assert self.wal is not None
        while True:
            await asyncio.sleep(self.config.snapshot_interval_s)
            try:
                await asyncio.to_thread(self.wal.sync)
            except Exception as exc:  # noqa: BLE001 — report, keep cycling
                self.health.note_snapshot_failure(repr(exc))
                continue
            self.health.note_snapshot(self.wal.next_seq - 1)

    async def _scrub_loop(self) -> None:
        """Periodic verify-only scrub of the live WAL store.

        Never repairs (the store is hot; a journaled unit observed
        damaged is a real incident, and the drain loop owns all writes)
        — damage is surfaced as typed ``scrub-damage`` incidents so
        operators learn about at-rest rot weeks before a restart's
        replay would.  Stray temps and a torn journal tail are *not*
        incidents here: a scrub racing an in-flight append can observe
        both legitimately.
        """
        while True:
            await asyncio.sleep(self.config.scrub_interval_s)
            try:
                report = await asyncio.to_thread(
                    scrub_store, self._checkpoint_dir
                )
            except OSError as exc:
                self.health.note_storage_fault(
                    "scrub", self._checkpoint_dir, repr(exc)
                )
                continue
            for unit in report.damaged:
                self.health.note_scrub_damage(str(unit))
            self.health.note_scrub(report.n_verified_ok)

    def _disk_free_bytes(self) -> int:
        if self._disk_probe is not None:
            return self._disk_probe()
        return shutil.disk_usage(self._checkpoint_dir).free

    def _check_disk_pressure(self) -> Optional[Dict[str, Any]]:
        """Typed shed response while the WAL volume is under pressure.

        Mirrors the ingest queue's hysteresis: shedding starts below
        ``disk_min_free_bytes`` and stops only past
        ``disk_resume_free_bytes``, with one ``disk-pressure`` incident
        per episode (each shed batch is still counted individually).
        """
        if self.config.disk_min_free_bytes <= 0:
            return None
        free = self._disk_free_bytes()
        if not self._disk_shedding:
            if free >= self.config.disk_min_free_bytes:
                return None
            self._disk_shedding = True
            self.health.note_disk_pressure(
                free, self.config.disk_min_free_bytes
            )
        elif free >= self.config.disk_resume_free_bytes:
            self._disk_shedding = False
            return None
        return {
            "status": "shed",
            "error": (
                f"WAL volume has {free} free bytes; ingest resumes past "
                f"{self.config.disk_resume_free_bytes}"
            ),
            "retry_after_s": self.config.shed_retry_after_s,
            "free_bytes": free,
        }

    def _record_restart(self, name: str, attempt: int, error: BaseException) -> None:
        self.health.note_task_restart(name, attempt, repr(error))

    # -- request handling ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Request line exceeded max_request_bytes: reject it
                    # without buffering it, then drop the connection
                    # (the stream is no longer line-synchronized).
                    writer.write(
                        json.dumps({
                            "status": "rejected",
                            "error": (
                                "request exceeds "
                                f"{self.config.max_request_bytes} bytes"
                            ),
                        }).encode("utf-8") + b"\n"
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if line.startswith(b"GET "):
                    await self._respond_http(writer, line)
                    break
                try:
                    response = await asyncio.wait_for(
                        self._dispatch_line(line),
                        timeout=self.config.request_timeout_s,
                    )
                except asyncio.TimeoutError:
                    response = {
                        "status": "retry",
                        "error": "request deadline exceeded",
                        "retry_after_s": self.config.shed_retry_after_s,
                    }
                if self._unpublished:
                    # Publish before the reply, which may be the ack.
                    self._dirty, self._unpublished = True, False
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                if response.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            # The peer hung up mid-request; nothing to answer.
            return
        finally:
            writer.close()

    async def _respond_http(
        self, writer: asyncio.StreamWriter, request_line: bytes
    ) -> None:
        """Minimal HTTP/1.0 shim so probes can hit /healthz and /readyz."""
        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) > 1 else ""
        op = _HTTP_PATHS.get(path)
        if op == "healthz":
            code, payload = 200, self.health.healthz()
        elif op == "readyz":
            payload = self.health.readyz()
            code = 200 if payload["ready"] else 503
        else:
            code, payload = 404, {"error": f"unknown path {path!r}"}
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}[code]
        writer.write(
            f"HTTP/1.0 {code} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()

    async def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return {"status": "error", "error": f"unreadable request: {exc}"}
        if not isinstance(request, dict):
            return {"status": "error", "error": "request must be a JSON object"}
        op = request.get("op")
        if op == "ingest":
            return await self._op_ingest(request)
        if op == "query":
            return self._op_query(request)
        if op == "footprint":
            return self._op_footprint(request)
        if op == "digest":
            self._refresh_caches()
            return {
                "status": "ok",
                "digest": catalog_digest(
                    self._cached_records, self._cached_summaries
                ),
                "n_devices": len(self._cached_summaries),
                "n_records": len(self._cached_records),
            }
        if op == "healthz":
            return {"status": "ok", "healthz": self.health.healthz()}
        if op == "readyz":
            return {"status": "ok", "readyz": self.health.readyz()}
        if op == "shutdown":
            self.health.shutting_down = True
            # Retained on the instance: the shutdown task must outlive
            # this request handler.
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.stop()
            )
            return {"status": "ok", "op": "shutdown"}
        return {"status": "error", "error": f"unknown op {op!r}"}

    async def _op_ingest(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.wal is not None
        batch_id = request.get("batch_id")
        if not isinstance(batch_id, str) or not batch_id:
            return {"status": "error", "error": "ingest requires a batch_id"}
        rows = request.get("rows")
        if not isinstance(rows, list):
            return {"status": "error", "error": "ingest requires a rows list"}
        if len(rows) > self.config.max_batch_rows:
            return {
                "status": "rejected",
                "error": (
                    f"batch holds {len(rows)} rows; limit is "
                    f"{self.config.max_batch_rows}"
                ),
            }
        if batch_id in self.wal.applied_batch_ids:
            return {"status": "ok", "duplicate": True}
        in_flight = self._pending.get(batch_id)
        if in_flight is not None:
            return await self._await_ack(in_flight, duplicate=True)
        pressure = self._check_disk_pressure()
        if pressure is not None:
            self.health.note_shed(batch_id, self.config.shed_retry_after_s)
            return pressure

        radio, service, report = parse_batch_rows(rows, source=batch_id)
        ack: "asyncio.Future[int]" = asyncio.get_running_loop().create_future()
        pending = _PendingBatch(batch_id, radio, service, ack)
        try:
            self.queue.put_nowait(pending)
        except OverloadShed as shed:
            if shed.saturation_started:
                self.health.note_queue_saturation(shed.depth, shed.high_watermark)
            self.health.note_shed(batch_id, shed.retry_after_s)
            return {
                "status": "shed",
                "error": str(shed),
                "retry_after_s": shed.retry_after_s,
                "queue_depth": shed.depth,
            }
        self._pending[batch_id] = pending
        response = await self._await_ack(pending, report=report)
        return response

    async def _await_ack(
        self,
        pending: _PendingBatch,
        duplicate: bool = False,
        report: Any = None,
    ) -> Dict[str, Any]:
        batch_id = pending.batch_id
        pending.waiters += 1
        try:
            seq = await asyncio.wait_for(
                asyncio.shield(pending.ack), timeout=self.config.batch_deadline_s
            )
        except asyncio.TimeoutError:
            # The batch stays queued; the ack future stays pending, so a
            # re-send under the same id awaits it instead of re-queueing.
            return {
                "status": "retry",
                "error": "batch deadline exceeded before durable ack",
                "batch_id": batch_id,
                "retry_after_s": self.config.shed_retry_after_s,
            }
        except Exception as exc:  # noqa: BLE001 — the drain loop parks the
            # WAL append's failure (whatever its type) on the ack future;
            # the client gets a typed error, never a dropped connection.
            self._pending.pop(batch_id, None)
            return {"status": "error", "error": repr(exc), "batch_id": batch_id}
        finally:
            pending.waiters -= 1
        self._pending.pop(batch_id, None)
        response: Dict[str, Any] = {"status": "ok", "seq": seq, "batch_id": batch_id}
        if duplicate:
            response["duplicate"] = True
        if report is not None:
            response["ingest"] = report_payload(report)
        return response

    def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        device_id = request.get("device_id")
        if not isinstance(device_id, str):
            return {"status": "error", "error": "query requires a device_id"}
        self._refresh_caches()
        summary = self._cached_summaries.get(device_id)
        if summary is None:
            failure = self._builder.quarantined.get(device_id)
            if failure is not None:
                return {
                    "status": "quarantined",
                    "device_id": device_id,
                    "error": failure.error,
                }
            return {"status": "not_found", "device_id": device_id}
        classification = self._cached_classes[device_id]
        return {
            "status": "ok",
            "device_id": device_id,
            "sim_plmn": summary.sim_plmn,
            "label": str(summary.label),
            "class": classification.label.value,
            "class_step": classification.step.value,
            "active_days": summary.active_days,
            "n_events": summary.n_events,
            "n_calls": summary.n_calls,
            "bytes_total": summary.bytes_total,
            "visited_plmns": sorted(summary.visited_plmns),
            "apns": sorted(summary.apns),
        }

    def _op_footprint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        sim_plmn = request.get("sim_plmn")
        if not isinstance(sim_plmn, str):
            return {"status": "error", "error": "footprint requires a sim_plmn"}
        self._refresh_caches()
        visited: Set[str] = set()
        labels: Dict[str, int] = {}
        classes: Dict[str, int] = {}
        n_devices = 0
        for device_id, summary in self._cached_summaries.items():
            if summary.sim_plmn != sim_plmn:
                continue
            n_devices += 1
            visited.update(summary.visited_plmns)
            label = str(summary.label)
            labels[label] = labels.get(label, 0) + 1
            cls = self._cached_classes[device_id].label.value
            classes[cls] = classes.get(cls, 0) + 1
        return {
            "status": "ok",
            "sim_plmn": sim_plmn,
            "n_devices": n_devices,
            "visited_plmns": sorted(visited),
            "labels": dict(sorted(labels.items())),
            "classes": dict(sorted(classes.items())),
        }


async def run_daemon(
    ecosystem: Ecosystem,
    checkpoint_dir: str,
    config: Optional[ServiceConfig] = None,
    resume: bool = False,
    seed: int = 0,
    ready_callback: Optional[Callable[[int], None]] = None,
) -> None:
    """Start a daemon and serve until a shutdown op (CLI entry point)."""
    daemon = CatalogDaemon(
        ecosystem, checkpoint_dir, config=config, resume=resume, seed=seed
    )
    await daemon.start()
    if ready_callback is not None:
        ready_callback(daemon.port)
    await daemon.serve_until_stopped()
