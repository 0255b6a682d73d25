"""Durable execution of the day-by-day pipeline: kill → resume → same bytes.

The driver folds the window into the catalog one ``(day, shard)`` unit
at a time.  Each unit is pure — a shard-by-device slice of one day's
records, encoded (and in lenient mode validated) by a worker into a
self-contained block (:mod:`repro.runtime.serialize`) — so a unit can
be re-executed any number of times with the same result.  Completed
units are persisted and journaled by the
:class:`~repro.runtime.checkpoint.CheckpointStore`; the catalog itself
is reconstructed by replaying the blocks through the incremental engine
(:meth:`repro.core.catalog.CatalogBuilder.update`), whose snapshot over
ascending days equals a one-shot
:meth:`~repro.core.catalog.CatalogBuilder.build_from_columns`.

The durability contract: killing the run at **any** instant and
resuming with ``resume=True`` yields day records, summaries and
classifications byte-identical to an uninterrupted run — in strict and
lenient modes, at any worker count.  Three properties carry the proof: units are pure; the journal
plus per-block CRCs make "complete" an all-or-nothing predicate; and
the update feed concatenates shards in fixed shard order while every
catalog output is order-normalized per device.

Lenient note: durable lenient mode validates devices against each
*day slice* (the unit boundary) rather than the whole window at once,
so quarantine decisions are day-granular; a device is quarantined from
its first failing day and scrubbed from the final snapshot entirely,
matching the serial policy for any failure that manifests on the day
it is recorded.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.columnar.store import (
    ColumnPools,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    from_record_streams,
)
from repro.core.catalog import CatalogBuilder
from repro.core.classifier import ClassifierConfig, DeviceClassifier
from repro.core.roaming import RoamingLabeler
from repro.datasets.containers import MNODataset
from repro.datasets.io import IngestReport
from repro.ecosystem import Ecosystem
from repro.faults.retry import RetryError, RetryPolicy, call_with_retry
from repro.parallel.health import (
    STORAGE_FAULT,
    TORN_CHECKPOINT,
    UNIT_QUARANTINED,
    RunHealth,
    ShardIncident,
    StorageIncident,
)
from repro.parallel.pool import DEFAULT_SHARD_DEADLINE_S, get_context, map_shards
from repro.parallel.sharding import shard_mno_records
from repro.pipeline import (
    DegradationReport,
    PipelineResult,
    StageFailure,
    _lenient_classify_stage,
    quarantine_devices,
)
from repro.runtime.checkpoint import (
    BeforeReplace,
    CheckpointStore,
    PathLike,
    StorageAbort,
)
from repro.runtime.serialize import (
    CheckpointCorruption,
    QuarantineEntry,
    pack_day_block,
    unpack_day_block,
)
from repro.runtime.spill import (
    ReplayWindow,
    SpillDescriptor,
    spill_tmp_path,
    write_spill_blob,
)
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

#: A day's worth of source rows plus (for partition sources) the ingest
#: report that reading them produced.
DaySlice = Tuple[List[RadioEvent], List[ServiceRecord], Optional[IngestReport]]

#: Callable yielding one day's source rows; the seam partition-backed
#: runs plug ``load_day_batch_with_retry`` into.
DaySource = Callable[[int], DaySlice]

#: Unit worker payload: (day, shard index, radio slice, service slice).
UnitPayload = Tuple[int, int, List[RadioEvent], List[ServiceRecord]]

#: Default policy for transient storage faults (staging writes, unit
#: publishes, journal appends/fsyncs).  Delays are drawn, never slept —
#: the same convention as the pool's shard retries.
STORAGE_RETRY_POLICY = RetryPolicy(
    base_delay_s=0.05, multiplier=2.0, max_delay_s=1.0, jitter=0.5, max_attempts=3
)

#: Fold-skip sentinel for a unit whose persistence was exhausted in
#: lenient mode: the unit is absent from this run's catalog (a typed
#: ``unit-quarantined`` incident) and re-executes on the next resume.
_UNIT_QUARANTINED: Tuple = ()


def _day_slices(
    dataset: MNODataset,
) -> Dict[int, Tuple[List[RadioEvent], List[ServiceRecord]]]:
    """Group the dataset's record streams by day, stream order kept."""
    radio: Dict[int, List[RadioEvent]] = defaultdict(list)
    service: Dict[int, List[ServiceRecord]] = defaultdict(list)
    for event in dataset.radio_events:
        radio[int(event.timestamp // 86400.0)].append(event)
    for record in dataset.service_records:
        service[int(record.timestamp // 86400.0)].append(record)
    return {
        day: (radio.get(day, []), service.get(day, []))
        for day in sorted(set(radio) | set(service))
    }


def _validate_day_slice(
    builder: CatalogBuilder,
    radio: List[RadioEvent],
    service: List[ServiceRecord],
) -> Tuple[List[RadioEvent], List[ServiceRecord], List[QuarantineEntry]]:
    """Lenient-unit validation: quarantine devices whose day slice fails.

    Runs :func:`repro.pipeline.quarantine_devices` — the serial and
    sharded lenient paths' per-device catalog and summary stages — over
    the unit's slice, so durable and serial degradation reports agree.
    """
    events, records = from_record_streams(radio, service)
    _, _, failures, _ = quarantine_devices(builder, events, records)
    if failures:
        bad = {failure.device_id for failure in failures}
        radio = [event for event in radio if event.device_id not in bad]
        service = [record for record in service if record.device_id not in bad]
    return radio, service, [(f.device_id, f.stage, f.error) for f in failures]


def _encode_block(
    builder: CatalogBuilder,
    lenient: bool,
    radio: List[RadioEvent],
    service: List[ServiceRecord],
) -> bytes:
    """Encode one unit slice into its framed block (lenient-validated).

    Deterministic for a given slice: the parent can re-encode a unit
    whose staged spill file was lost to a write fault and publish bytes
    identical to the worker's.
    """
    if not lenient:
        return pack_day_block(radio, service)
    radio, service, quarantine = _validate_day_slice(builder, radio, service)
    return pack_day_block(radio, service, quarantine)


def _encode_unit(payload: UnitPayload) -> bytes:
    """Worker: turn one (day, shard) slice into its checkpoint block."""
    builder, lenient, _ = get_context()
    _, _, radio, service = payload
    return _encode_block(builder, lenient, radio, service)


def _encode_unit_spill(payload: UnitPayload) -> Union[bytes, SpillDescriptor]:
    """Worker: encode one slice and spill it, returning a descriptor.

    The out-of-core twin of :func:`_encode_unit`: the framed block is
    written (and fsynced) to a staging file inside the store's units
    directory instead of crossing the pool seam as a blob; the parent
    publishes it with one rename (:meth:`CheckpointStore.adopt_unit`).

    Staging writes retry transient faults under the storage policy
    (each failed attempt removed its partial file); if the retries are
    exhausted the worker degrades to shipping the blob itself across
    the pool seam — the parent publishes it with ``save_unit`` and
    records the degradation, so a sick spill volume slows the run
    instead of crashing it.
    """
    builder, lenient, spill_dir = get_context()
    day, shard, radio, service = payload
    blob = _encode_block(builder, lenient, radio, service)
    staged = spill_tmp_path(spill_dir, day, shard)
    try:
        call_with_retry(
            lambda: write_spill_blob(staged, blob),
            STORAGE_RETRY_POLICY,
            np.random.default_rng(0),
            retry_on=(OSError,),
        )
    except RetryError:
        return blob
    return SpillDescriptor(day=day, shard=shard, path=str(staged), nbytes=len(blob))


def _persist_unit(
    store: CheckpointStore,
    day: int,
    shard: int,
    result: Union[bytes, SpillDescriptor],
    builder: CatalogBuilder,
    payload: UnitPayload,
    lenient: bool,
    policy: RetryPolicy,
    rng: np.random.Generator,
    health: RunHealth,
) -> bool:
    """Publish one unit (block file + journal line) under the retry policy.

    Every failed attempt is a typed ``storage-fault`` incident.  A
    staged spill file consumed by a failed adoption (the rename unlinks
    its source on failure) is replaced by re-encoding the slice in the
    parent — byte-identical, units are pure.  On exhaustion: lenient
    quarantines the unit (``False``; it re-executes on resume), strict
    raises :class:`StorageAbort` with the store still consistent.
    """
    unit_path = str(store.unit_path(day, shard))
    state: Dict[str, Optional[bytes]] = {
        "blob": result if isinstance(result, bytes) else None
    }
    staged: List[str] = [result.path] if isinstance(result, SpillDescriptor) else []

    def publish_once() -> None:
        if staged:
            source = staged.pop()
            store.adopt_unit(day, shard, source)
        else:
            blob = state["blob"]
            if blob is None:
                _, _, radio, service = payload
                blob = state["blob"] = _encode_block(builder, lenient, radio, service)
            store.save_unit(day, shard, blob)
        store.mark_complete(day, shard)

    def on_retry(attempt: int, delay: float, exc: Exception) -> None:
        health.record_storage(
            StorageIncident(
                kind=STORAGE_FAULT,
                op="write",
                path=unit_path,
                detail=f"day {day} shard {shard}: {exc}",
                attempt=attempt,
            )
        )

    try:
        call_with_retry(
            publish_once, policy, rng, retry_on=(OSError,), on_retry=on_retry
        )
        return True
    except RetryError as exc:
        if lenient:
            health.record_storage(
                StorageIncident(
                    kind=UNIT_QUARANTINED,
                    op="write",
                    path=unit_path,
                    detail=(
                        f"day {day} shard {shard} quarantined after "
                        f"{exc.attempts} attempt(s): {exc.last_error}"
                    ),
                    attempt=exc.attempts - 1,
                )
            )
            return False
        raise StorageAbort(day, shard, exc.attempts, exc.last_error) from exc


def _sync_store(
    store: CheckpointStore,
    day: int,
    lenient: bool,
    policy: RetryPolicy,
    rng: np.random.Generator,
    health: RunHealth,
) -> None:
    """Day-boundary journal fsync under the retry policy.

    On exhaustion lenient continues (completions are flushed, merely
    not power-loss durable yet — the incident trail says so); strict
    aborts typed with the store consistent.
    """

    def on_retry(attempt: int, delay: float, exc: Exception) -> None:
        health.record_storage(
            StorageIncident(
                kind=STORAGE_FAULT,
                op="fsync",
                path=str(store.directory),
                detail=f"journal sync after day {day}: {exc}",
                attempt=attempt,
            )
        )

    try:
        call_with_retry(
            store.sync, policy, rng, retry_on=(OSError,), on_retry=on_retry
        )
    except RetryError as exc:
        if not lenient:
            raise StorageAbort(day, -1, exc.attempts, exc.last_error) from exc


def run_durable_pipeline(
    dataset: MNODataset,
    ecosystem: Ecosystem,
    checkpoint_dir: Optional[PathLike],
    resume: bool = False,
    classifier_config: Optional[ClassifierConfig] = None,
    compute_mobility: bool = True,
    lenient: bool = False,
    n_workers: int = 1,
    n_shards: Optional[int] = None,
    out_of_core: bool = False,
    max_resident_shards: Optional[int] = None,
    max_resident_bytes: Optional[int] = None,
    shard_deadline_s: Optional[float] = DEFAULT_SHARD_DEADLINE_S,
    retry_policy: Optional[RetryPolicy] = None,
    day_source: Optional[DaySource] = None,
    days: Optional[Sequence[int]] = None,
    before_replace: BeforeReplace = None,
    on_unit: Optional[Callable[[int, int], None]] = None,
    on_day: Optional[Callable[[int], None]] = None,
) -> PipelineResult:
    """Run the pipeline under checkpoint/resume durability.

    ``checkpoint_dir=None`` runs the identical unit-by-unit computation
    with persistence disabled — the measured baseline for the
    ``checkpoint_overhead`` bench.  ``resume=True`` continues a prior
    run in the directory (validating its manifest) instead of demanding
    a clean one; completed units are loaded, CRC-validated and *not*
    re-executed.  ``day_source``/``days`` switch the input from the
    in-memory dataset to an external per-day provider (e.g. JSONL
    partitions via
    :func:`repro.mno.streaming.load_day_batch_with_retry`); any ingest
    reports it yields are merged into ``result.degradation.ingest``.

    ``out_of_core=True`` spills every unit block to disk in the worker
    (a descriptor, not the blob, crosses the pool seam) and folds days
    by attaching blocks back through an mmap-backed
    :class:`~repro.runtime.spill.ReplayWindow` bounded by
    ``max_resident_shards`` / ``max_resident_bytes`` — peak RSS then
    scales with the shard window, not the population.  With
    ``checkpoint_dir`` set, the checkpoint store doubles as the spill
    store (durable runs get out-of-core for free, and the on-disk
    format is identical, so a checkpoint written in either mode resumes
    in the other); without one, an ephemeral spill directory is created
    and removed with the run.  The result is byte-identical to the
    in-memory path in every mode combination.

    ``on_unit(day, shard)`` and ``on_day(day)`` are crash-injection
    seams (see :mod:`repro.faults.crash`), called just before a unit is
    published and after a day is folded, respectively.
    """
    if n_shards is None:
        n_shards = max(n_workers, 1)
    labeler = RoamingLabeler(ecosystem.operators, dataset.observer)
    builder = CatalogBuilder(
        dataset.tac_db,
        dataset.sector_catalog,
        labeler,
        compute_mobility=compute_mobility,
    )
    classifier = DeviceClassifier(classifier_config)
    health = RunHealth()

    slices: Dict[int, Tuple[List[RadioEvent], List[ServiceRecord]]] = {}
    if day_source is None:
        slices = _day_slices(dataset)
        day_list = sorted(slices)
    else:
        if days is None:
            raise ValueError("day_source requires an explicit days sequence")
        day_list = sorted(days)

    fingerprint = {
        "source": "dataset" if day_source is None else "partitions",
        "n_radio": len(dataset.radio_events),
        "n_service": len(dataset.service_records),
        "observer": str(dataset.observer.plmn),
        "window_days": dataset.window_days,
        "days": list(day_list),
        "lenient": bool(lenient),
        "compute_mobility": bool(compute_mobility),
    }
    store: Optional[CheckpointStore] = None
    ephemeral_spill: Optional[str] = None
    if checkpoint_dir is None and out_of_core:
        # Out-of-core needs a spill store; without a checkpoint
        # directory it lives (and dies) with this run.
        ephemeral_spill = tempfile.mkdtemp(prefix="repro_spill_")
        checkpoint_dir = ephemeral_spill
        resume = False
    if checkpoint_dir is not None:
        try:
            store = CheckpointStore(
                checkpoint_dir,
                fingerprint,
                n_shards=n_shards,
                resume=resume,
                before_replace=before_replace,
            )
        except OSError as exc:
            # A disk fault while opening the store (manifest write,
            # temp sweep) aborts typed, never as a bare OSError.
            raise StorageAbort(-1, -1, 1, exc) from exc
        # The unit partitioning is fixed at run creation; resuming at a
        # different worker count reuses the recorded shard count so
        # completed units stay addressable.
        n_shards = store.n_shards
        if store.n_torn_journal_lines:
            # A torn journal tail is a checkpoint-integrity event just
            # like a torn unit block: the discarded completions simply
            # re-execute, but never silently.
            health.record(
                ShardIncident(
                    0,
                    TORN_CHECKPOINT,
                    store.attempt,
                    f"journal torn tail: {store.n_torn_journal_lines} "
                    "line(s) discarded",
                )
            )

    window: Optional[ReplayWindow] = None
    if out_of_core:
        assert store is not None
        window = ReplayWindow(
            max_resident_shards=(
                max_resident_shards if max_resident_shards is not None else 4
            ),
            max_resident_bytes=max_resident_bytes,
        )

    quarantined: Dict[str, QuarantineEntry] = {}
    observed: Set[str] = set()
    ingest: Optional[IngestReport] = None
    storage_policy = retry_policy if retry_policy is not None else STORAGE_RETRY_POLICY
    storage_rng = np.random.default_rng(0)
    try:
        for day in day_list:
            #: shard -> decoded block, or None when the block stays on
            #: disk and the fold attaches it through the window.
            blocks: Dict[int, Optional[Tuple]] = {}
            pending: List[int] = []
            for shard in range(n_shards):
                if store is not None and store.is_journaled(day, shard):
                    try:
                        if window is not None:
                            # CRC-validate in place; the block stays
                            # mapped, never copied into the heap.
                            window.attach(store.unit_path(day, shard), day, shard)
                            blocks[shard] = None
                        else:
                            blocks[shard] = unpack_day_block(
                                store.load_unit(day, shard)
                            )
                        continue
                    except CheckpointCorruption as exc:
                        health.record(
                            ShardIncident(
                                shard, TORN_CHECKPOINT, 0, f"day {day}: {exc}"
                            )
                        )
                        if isinstance(exc.__cause__, OSError):
                            health.record_storage(
                                StorageIncident(
                                    kind=STORAGE_FAULT,
                                    op="read",
                                    path=str(store.unit_path(day, shard)),
                                    detail=f"day {day} shard {shard}: {exc}",
                                )
                            )
                pending.append(shard)
            if pending:
                if day_source is not None:
                    radio_day, service_day, day_report = day_source(day)
                    if day_report is not None:
                        ingest = (
                            day_report if ingest is None else ingest.merge(day_report)
                        )
                else:
                    radio_day, service_day = slices.get(day, ([], []))
                shard_slices = shard_mno_records(radio_day, service_day, n_shards)
                payloads: List[UnitPayload] = [
                    (day, shard, shard_slices[shard][0], shard_slices[shard][1])
                    for shard in pending
                ]
                del radio_day, service_day, shard_slices
                spill_dir = None if store is None else store.units_dir
                results: Sequence[Union[bytes, SpillDescriptor]] = map_shards(
                    _encode_unit_spill if window is not None else _encode_unit,
                    payloads,
                    n_workers,
                    context=(builder, lenient, spill_dir),
                    deadline_s=shard_deadline_s,
                    retry_policy=retry_policy,
                    health=health,
                )
                for unit_payload, result in zip(payloads, results):
                    _, shard, _, _ = unit_payload
                    if on_unit is not None:
                        on_unit(day, shard)
                    if store is None:
                        assert isinstance(result, bytes)
                        blocks[shard] = unpack_day_block(result)
                        continue
                    if window is not None and isinstance(result, bytes):
                        # The worker's spill staging exhausted its
                        # retries and shipped the blob instead; the
                        # parent publishes it atomically below.
                        health.record_storage(
                            StorageIncident(
                                kind=STORAGE_FAULT,
                                op="write",
                                path=str(store.unit_path(day, shard)),
                                detail=(
                                    f"day {day} shard {shard}: worker spill "
                                    "staging failed; block shipped to parent"
                                ),
                            )
                        )
                    published = _persist_unit(
                        store,
                        day,
                        shard,
                        result,
                        builder,
                        unit_payload,
                        lenient,
                        storage_policy,
                        storage_rng,
                        health,
                    )
                    if not published:
                        blocks[shard] = _UNIT_QUARANTINED
                    elif window is not None:
                        blocks[shard] = None
                    else:
                        assert isinstance(result, bytes)
                        blocks[shard] = unpack_day_block(result)
            if store is not None:
                _sync_store(store, day, lenient, storage_policy, storage_rng, health)

            # Fold the day's shards straight onto a shared-pool columnar
            # accumulator (shard order, in-shard order preserved) — the
            # builder's update takes column stores, so no row round-trip.
            day_pools = ColumnPools()
            events_day = ColumnarRadioEvents(day_pools)
            records_day = ColumnarServiceRecords(day_pools)
            for shard in range(n_shards):
                block = blocks[shard]
                if block is _UNIT_QUARANTINED:
                    continue
                if block is None:
                    assert window is not None and store is not None
                    try:
                        events_c, records_c, unit_quarantine = window.attach(
                            store.unit_path(day, shard), day, shard
                        )
                    except CheckpointCorruption as exc:
                        # The published block fails validation at fold
                        # time (bit rot, read EIO).  The unit is
                        # journaled, so the next resume detects the
                        # damage and re-executes it — lenient runs
                        # quarantine it from this fold, strict runs
                        # abort typed.
                        health.record_storage(
                            StorageIncident(
                                kind=STORAGE_FAULT,
                                op="read",
                                path=str(store.unit_path(day, shard)),
                                detail=f"day {day} shard {shard}: {exc}",
                            )
                        )
                        if not lenient:
                            raise
                        health.record_storage(
                            StorageIncident(
                                kind=UNIT_QUARANTINED,
                                op="read",
                                path=str(store.unit_path(day, shard)),
                                detail=(
                                    f"day {day} shard {shard} quarantined "
                                    f"from the fold: {exc}"
                                ),
                            )
                        )
                        continue
                else:
                    events_c, records_c, unit_quarantine = block
                # Quarantined devices' rows were scrubbed from the block,
                # so they count as observed only via their entries.
                observed.update(events_c.pools.devices.strings)
                for entry in unit_quarantine:
                    observed.add(entry[0])
                    quarantined.setdefault(entry[0], entry)
                radio_keep: Optional[List[int]] = None
                service_keep: Optional[List[int]] = None
                if quarantined:
                    bad_ids = {
                        index
                        for index, name in enumerate(events_c.pools.devices.strings)
                        if name in quarantined
                    }
                    if bad_ids:
                        radio_keep = [
                            index
                            for index, dev in enumerate(events_c.device_ids)
                            if dev not in bad_ids
                        ]
                        service_keep = [
                            index
                            for index, dev in enumerate(records_c.device_ids)
                            if dev not in bad_ids
                        ]
                events_day.extend_from(events_c, radio_keep)
                records_day.extend_from(records_c, service_keep)
            builder.update(day, events_day, records_day)
            if on_day is not None:
                on_day(day)
    finally:
        if window is not None:
            window.close()
        if store is not None:
            store.close()
        if ephemeral_spill is not None:
            shutil.rmtree(ephemeral_spill, ignore_errors=True)

    day_records, summaries = builder.snapshot()
    if quarantined:
        day_records = [r for r in day_records if r.device_id not in quarantined]
        summaries = {
            device_id: summary
            for device_id, summary in summaries.items()
            if device_id not in quarantined
        }

    degradation: Optional[DegradationReport] = None
    if lenient:
        degradation = DegradationReport(n_devices_total=len(observed))
        for device_id in sorted(quarantined):
            degradation.add(StageFailure(*quarantined[device_id]))
        degradation.ingest = ingest
        classifications = _lenient_classify_stage(summaries, classifier, degradation)
        degradation.n_devices_ok = len(classifications)
    else:
        classifications = classifier.classify(summaries)

    return PipelineResult(
        dataset=dataset,
        day_records=day_records,
        summaries=summaries,
        classifications=classifications,
        labeler=labeler,
        degradation=degradation,
        health=health,
    )
