"""Durable execution of the day-by-day pipeline: kill → resume → same bytes.

The driver folds the window into the catalog one ``(day, shard)`` unit
at a time, in this process.  For each day it loads the units the
journal already holds, builds the pending ones — a shard-by-device
slice of the day's records, interned (and in lenient mode validated)
into column stores — persists each one as a self-contained block
(:mod:`repro.runtime.serialize`) when there is a store, and folds them
into the incremental engine
(:meth:`repro.core.catalog.CatalogBuilder.update`), whose snapshot
equals a one-shot
:meth:`~repro.core.catalog.CatalogBuilder.build_from_columns` over the
same rows.  Only one day of column stores is ever held.  Each unit is
pure, so it can be re-executed any number of times with the same
result.

The durability contract: killing the run at **any** instant and
resuming with ``resume=True`` yields day records, summaries and
classifications byte-identical to an uninterrupted run — in strict and
lenient modes, at any worker count.  Three properties carry the proof: units are pure; the journal
plus per-block CRCs make "complete" an all-or-nothing predicate; and
the catalog is a function of the multiset of folded rows, whatever the
shard or fold order.

Lenient note: durable lenient mode validates devices against each
*day slice* (the unit boundary) rather than the whole window at once,
so quarantine decisions are day-granular; a device is quarantined from
its first failing day and scrubbed from the final snapshot entirely,
matching the serial policy for any failure that manifests on the day
it is recorded.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.columnar.store import (
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
from repro.parallel.pool import get_context, map_shards
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
    pack_columns,
    unpack_day_block,
)
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

#: A day's worth of source rows plus (for partition sources) the ingest
#: report that reading them produced.
DaySlice = Tuple[List[RadioEvent], List[ServiceRecord], Optional[IngestReport]]

#: Callable yielding one day's source rows; the seam partition-backed
#: runs plug ``load_day_batch_with_retry`` into.
DaySource = Callable[[int], DaySlice]

#: Unit payload: (day, shard index, radio slice, service slice).
UnitPayload = Tuple[int, int, List[RadioEvent], List[ServiceRecord]]

#: One built unit: its interned stores plus its quarantine decisions.
Unit = Tuple[ColumnarRadioEvents, ColumnarServiceRecords, List[QuarantineEntry]]

#: Default policy for transient storage faults (unit publishes, journal
#: appends/fsyncs).  Delays are drawn, never slept — the same
#: convention as the pool's shard retries.
STORAGE_RETRY_POLICY = RetryPolicy(
    base_delay_s=0.05, multiplier=2.0, max_delay_s=1.0, jitter=0.5, max_attempts=3
)


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


def _build_unit(
    builder: CatalogBuilder,
    lenient: bool,
    radio: List[RadioEvent],
    service: List[ServiceRecord],
) -> Unit:
    """Intern one unit slice; in lenient mode, quarantine its bad devices.

    Lenient validation runs :func:`repro.pipeline.quarantine_devices` —
    the serial and sharded lenient paths' per-device catalog and summary
    stages — over the interned slice, so durable and serial degradation
    reports agree.  Only when a device was quarantined are the survivors
    interned again, so the unit's vocabulary holds exactly the devices
    its rows name.
    """
    events, records = from_record_streams(radio, service)
    if not lenient:
        return events, records, []
    _, _, failures, _ = quarantine_devices(builder, events, records)
    if not failures:
        return events, records, []
    bad = {failure.device_id for failure in failures}
    events, records = from_record_streams(
        [event for event in radio if event.device_id not in bad],
        [record for record in service if record.device_id not in bad],
    )
    return events, records, [(f.device_id, f.stage, f.error) for f in failures]


def _encode_block(
    builder: CatalogBuilder,
    lenient: bool,
    radio: List[RadioEvent],
    service: List[ServiceRecord],
) -> bytes:
    """The persisted bytes of one unit slice (lenient-validated).

    Deterministic for a given slice, which is what lets the scrubber
    (:func:`repro.runtime.scrub.recompute_from_dataset`) rebuild a
    damaged unit byte for byte.
    """
    return pack_columns(*_build_unit(builder, lenient, radio, service))


def _encode_unit(payload: UnitPayload) -> Unit:
    """Build one (day, shard) unit under the installed run context."""
    builder, lenient = get_context()
    _, _, radio, service = payload
    return _build_unit(builder, lenient, radio, service)


def _persist_unit(
    store: CheckpointStore,
    day: int,
    shard: int,
    blob: bytes,
    lenient: bool,
    rng: np.random.Generator,
    health: RunHealth,
) -> bool:
    """Publish one unit (block file + journal line) under the storage policy.

    Every failed attempt is a typed ``storage-fault`` incident.  On
    exhaustion: lenient quarantines the unit (``False``; it is left out
    of this run's fold and re-executes on resume), strict raises
    :class:`StorageAbort` with the store still consistent.
    """
    unit_path = str(store.unit_path(day, shard))

    def publish_once() -> None:
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
            publish_once,
            STORAGE_RETRY_POLICY,
            rng,
            retry_on=(OSError,),
            on_retry=on_retry,
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
    rng: np.random.Generator,
    health: RunHealth,
) -> None:
    """Day-boundary journal fsync under the storage policy.

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
            store.sync,
            STORAGE_RETRY_POLICY,
            rng,
            retry_on=(OSError,),
            on_retry=on_retry,
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

    Units are built in this process.  ``n_workers`` only sets how many
    shards per day a fresh store is cut into, so ``--jobs N``
    checkpoints keep their on-disk layout; a resumed store keeps its
    recorded shard count, so it resumes at any worker count.

    ``on_unit(day, shard)`` and ``on_day(day)`` are crash-injection
    seams (see :mod:`repro.faults.crash`), called just before a unit is
    published and after a day is folded, respectively.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    n_shards = n_workers
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

    quarantined: Dict[str, QuarantineEntry] = {}
    observed: Set[str] = set()
    ingest: Optional[IngestReport] = None
    storage_rng = np.random.default_rng(0)
    try:
        for day in day_list:
            #: shard -> built or loaded unit; a unit whose persistence
            #: was exhausted in lenient mode is left out of this fold
            #: (a typed ``unit-quarantined`` incident) and re-executes
            #: on the next resume.
            units: Dict[int, Unit] = {}
            pending: List[int] = []
            for shard in range(n_shards):
                if store is not None and store.is_journaled(day, shard):
                    try:
                        units[shard] = unpack_day_block(store.load_unit(day, shard))
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
                built = map_shards(
                    _encode_unit, payloads, 1, context=(builder, lenient)
                )
                # Hold one day of rows and units at most: drop this day's
                # references before the next day's source is read.
                del payloads
                for shard, unit in zip(pending, built):
                    if on_unit is not None:
                        on_unit(day, shard)
                    if store is None or _persist_unit(
                        store,
                        day,
                        shard,
                        pack_columns(*unit),
                        lenient,
                        storage_rng,
                        health,
                    ):
                        units[shard] = unit
                del built
            if store is not None:
                _sync_store(store, day, lenient, storage_rng, health)

            # Each shard's unit is one delta of the day: update merges
            # it as built or decoded, in any shard order.
            for shard in sorted(units):
                events_c, records_c, unit_quarantine = units[shard]
                # Quarantined devices' rows were scrubbed from the unit,
                # so they count as observed only via their entries.
                observed.update(events_c.pools.devices.strings)
                for entry in unit_quarantine:
                    observed.add(entry[0])
                    quarantined.setdefault(entry[0], entry)
                if quarantined:
                    bad_ids = {
                        index
                        for index, name in enumerate(events_c.pools.devices.strings)
                        if name in quarantined
                    }
                    if bad_ids:
                        events_c = events_c.select([
                            index
                            for index, dev in enumerate(events_c.device_ids)
                            if dev not in bad_ids
                        ])
                        records_c = records_c.select([
                            index
                            for index, dev in enumerate(records_c.device_ids)
                            if dev not in bad_ids
                        ])
                builder.update(day, events_c, records_c)
            if on_day is not None:
                on_day(day)
    finally:
        if store is not None:
            store.close()

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
