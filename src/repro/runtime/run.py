"""Durable execution of the day-by-day pipeline: kill → resume → same bytes.

The driver folds the window into the catalog one ``(day, shard)`` unit
at a time, in this process.  For each day it loads the units the
journal already holds, builds the pending ones, persists each one as a
self-contained block (:func:`repro.columnar.blocks.pack_columns`) when
there is a store, and folds them into the incremental engine
(:meth:`repro.core.catalog.CatalogBuilder.update`), whose snapshot
equals a one-shot
:meth:`~repro.core.catalog.CatalogBuilder.build_from_columns` over the
same rows.  Each unit is pure, so it can be re-executed any number of
times with the same result.

A unit is cut from interned columns and builds no row object.  An
in-memory dataset's stores (a simulated dataset's own, or a row-list
dataset's rows interned once) are cut once, after the store opens, by
:func:`repro.parallel.sharding.unit_rows`: one stable argsort per
store over ``day * n_shards + shard``, with each device's shard hashed
once per pool entry.  A ``day_source`` day is interned once and cut by
shard alone (:func:`~repro.parallel.sharding.shard_rows`), so its units
hold every row the source returned for it; a row stamped with another
day is folded into that day.  Each unit's rows are then gathered onto
pools of their own
(:func:`~repro.columnar.store.select_own_pools`), which equals
interning the unit's rows, so unit bytes do not depend on where the
rows came from.  A ``day_source`` run holds one source day at a time.

The durability contract: killing the run at **any** instant and
resuming with ``resume=True`` yields day records, summaries and
classifications byte-identical to an uninterrupted run — in strict and
lenient modes, at any worker count.  Three properties carry the proof: units are pure; the journal
plus per-block CRCs make "complete" an all-or-nothing predicate; and
the catalog is a function of the multiset of folded rows, whatever the
shard or fold order.

Lenient mode changes no unit: the final snapshot quarantines a device
over its whole window, as every other mode does.  A journaled unit that
lists quarantined devices leaves their rows out; the codec refuses it
as corruption, so it is rebuilt from the source like a torn one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.blocks import CheckpointCorruption, pack_columns, unpack_day_block
from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    from_record_streams,
    select_own_pools,
    split_by_day,
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
    Incident,
    RunHealth,
)
from repro.parallel.pool import map_shards
from repro.parallel.sharding import shard_rows, unit_rows
from repro.pipeline import DegradationReport, PipelineResult, _lenient_classify
from repro.runtime.checkpoint import (
    BeforeReplace,
    CheckpointStore,
    PathLike,
    StorageAbort,
)
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

#: A day's worth of source rows plus (for partition sources) the ingest
#: report that reading them produced.
DaySlice = Tuple[List[RadioEvent], List[ServiceRecord], Optional[IngestReport]]

#: Callable yielding one day's source rows; the seam partition-backed
#: runs plug ``load_day_batch_with_retry`` into.
DaySource = Callable[[int], DaySlice]

#: One built unit: its rows, interned onto pools of their own.
Unit = Tuple[ColumnarRadioEvents, ColumnarServiceRecords]

#: What a unit is cut from: two stores sharing one pool set, and the
#: unit's radio and service row indices in them.
UnitSource = Tuple[ColumnarRadioEvents, ColumnarServiceRecords, np.ndarray, np.ndarray]

#: Default policy for transient storage faults (unit publishes, journal
#: appends/fsyncs).  Delays are drawn, never slept — the same
#: convention as the pool's shard retries.
STORAGE_RETRY_POLICY = RetryPolicy(
    base_delay_s=0.05, multiplier=2.0, max_delay_s=1.0, jitter=0.5, max_attempts=3
)


def _build_unit(source: UnitSource) -> Unit:
    """Build one unit: its rows gathered onto pools of their own.

    A unit equals interning its rows
    (:func:`~repro.columnar.store.select_own_pools`).  The stores units
    are cut from are themselves the interning of their rows (a source
    day, a row-list dataset, or a simulated dataset's stores, which
    equal it), so a unit holding every one of their rows — its indices
    ascend — is those stores, and takes no second copy.
    """
    events, records, radio_rows, service_rows = source
    if len(radio_rows) == len(events) and len(service_rows) == len(records):
        return events, records
    return select_own_pools(events, records, radio_rows, service_rows)


def _retry_storage(
    action: Callable[[], None],
    op: str,
    path: str,
    detail: str,
    rng: np.random.Generator,
    health: RunHealth,
) -> Optional[RetryError]:
    """Run one storage action under :data:`STORAGE_RETRY_POLICY`.

    Every failed attempt is a typed ``storage-fault`` incident naming
    ``op`` and ``path``.  Returns ``None`` once the action succeeds, or
    the exhausted :class:`RetryError`, so each caller takes its own
    lenient or strict decision.
    """

    def on_retry(attempt: int, delay: float, exc: Exception) -> None:
        health.record(
            Incident(STORAGE_FAULT, f"{detail}: {exc}", attempt=attempt, op=op, path=path)
        )

    try:
        call_with_retry(action, STORAGE_RETRY_POLICY, rng, retry_on=(OSError,), on_retry=on_retry)
    except RetryError as exc:
        return exc
    return None


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

    On exhaustion: lenient quarantines the unit (``False``; it is left
    out of this run's fold and re-executes on resume), strict raises
    :class:`StorageAbort` with the store still consistent.
    """
    unit_path = str(store.unit_path(day, shard))

    def publish_once() -> None:
        store.save_unit(day, shard, blob)
        store.mark_complete(day, shard)

    exc = _retry_storage(
        publish_once, "write", unit_path, f"day {day} shard {shard}", rng, health
    )
    if exc is None:
        return True
    if not lenient:
        raise StorageAbort(day, shard, exc.attempts, exc.last_error) from exc
    health.record(
        Incident(
            UNIT_QUARANTINED,
            f"day {day} shard {shard} quarantined after {exc.attempts} "
            f"attempt(s): {exc.last_error}",
            attempt=exc.attempts - 1,
            op="write",
            path=unit_path,
        )
    )
    return False


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
    directory = str(store.directory)
    detail = f"journal sync after day {day}"
    exc = _retry_storage(store.sync, "fsync", directory, detail, rng, health)
    if exc is not None and not lenient:
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
    A source day's units are keyed and journaled by that day, and a
    row stamped with another day (a partition holding a late row) is
    folded on the day it carries.

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

    columns: Optional[Unit] = None
    if day_source is None:
        # A simulated dataset's stores, or a row-list dataset's rows
        # interned once, as the serial pipeline does.
        columns = dataset.columns or from_record_streams(
            dataset.radio_events, dataset.service_records
        )
        day_list = np.union1d(
            np.frombuffer(columns[0].days, dtype=np.int64),
            np.frombuffer(columns[1].days, dtype=np.int64),
        ).tolist()
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
                Incident(
                    TORN_CHECKPOINT,
                    f"journal torn tail: {store.n_torn_journal_lines} "
                    "line(s) discarded",
                    attempt=store.attempt,
                )
            )

    #: day -> each shard's unit source; cut with the store's shard
    #: count, as a resumed store keeps its own.
    cut: Dict[int, List[UnitSource]] = {}
    if columns is not None:
        events, records = columns
        cut = {
            day: [(events, records, radio, service) for radio, service in day_rows]
            for day, day_rows in unit_rows(events, records, n_shards).items()
        }
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
                            Incident(TORN_CHECKPOINT, f"day {day}: {exc}", shard)
                        )
                        if isinstance(exc.__cause__, OSError):
                            health.record(
                                Incident(
                                    STORAGE_FAULT,
                                    f"day {day} shard {shard}: {exc}",
                                    op="read",
                                    path=str(store.unit_path(day, shard)),
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
                    # The source day, interned once, is cut by shard:
                    # its units hold every row it returned, whatever
                    # day a row is stamped with.
                    events, records = from_record_streams(radio_day, service_day)
                    del radio_day, service_day
                    day_cut = [
                        (events, records, radio, service)
                        for radio, service in shard_rows(events, records, n_shards)
                    ]
                    del events, records
                else:
                    day_cut = cut.pop(day)
                built = map_shards(_build_unit, [day_cut[shard] for shard in pending], 1)
                # Hold one day of stores and units at most: drop this
                # day's references before the next day's source is read.
                del day_cut
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

            # Each shard's unit is one delta: update merges it as built
            # or decoded, in any shard order, once per day its rows are
            # stamped with (a source day can hold a late row).
            for shard in sorted(units):
                for row_day, events_d, records_d in split_by_day(*units[shard]):
                    builder.update(row_day, events_d, records_d)
            if on_day is not None:
                on_day(day)
    finally:
        if store is not None:
            store.close()

    day_records, summaries = builder.snapshot(lenient=lenient)
    degradation: Optional[DegradationReport] = None
    if lenient:
        classifications, degradation = _lenient_classify(
            summaries, builder.quarantined.values(), classifier
        )
        degradation.ingest = ingest
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
