"""One-call convenience pipeline: dataset in, everything the figures need out.

Wraps the §4 workflow — devices-catalog construction, roaming labeling,
classification — into a single :func:`run_pipeline` call whose result
object every analysis module and bench consumes.

Graceful degradation (``lenient=True``): real probe feeds contain rows
the pipeline cannot interpret (see :mod:`repro.faults`), and one
poisoned device must not take the whole day's catalog down.  In lenient
mode each stage runs per device; a device whose records crash a stage is
quarantined and the run completes over the survivors, reporting what was
lost in a :class:`DegradationReport`.  Strict mode (the default) keeps
the historical all-or-nothing behavior so programming errors stay loud.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.parallel.health sits behind the
    # repro.parallel package, whose executor imports this module.
    from repro.parallel.health import RunHealth

from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    from_record_streams,
)
from repro.core.catalog import CatalogBuilder, DeviceDayRecord, DeviceSummary
from repro.core.classifier import Classification, ClassifierConfig, DeviceClassifier
from repro.core.roaming import RoamingLabeler
from repro.datasets.containers import MNODataset
from repro.datasets.io import IngestReport
from repro.ecosystem import Ecosystem

#: How many per-device failures a DegradationReport keeps verbatim.
MAX_EXEMPLAR_FAILURES = 10

#: Below this many total rows, ``n_workers="auto"`` stays serial: the
#: committed bench (benchmarks/BENCH_baseline.json) shows pool spawn +
#: shard pickling dominating at small scale (workers=2 ran at 0.28x
#: serial on the 1k-device bench).
AUTO_PARALLEL_MIN_ROWS = 250_000

@dataclass(frozen=True)
class StageFailure:
    """One quarantined device: which stage crashed, and how."""

    device_id: str
    stage: str
    error: str

    @classmethod
    def of(cls, device_id: str, stage: str, error: Exception) -> "StageFailure":
        return cls(device_id, stage, f"{type(error).__name__}: {error}")

    def __str__(self) -> str:
        return f"{self.device_id}@{self.stage}: {self.error}"


@dataclass
class DegradationReport:
    """What a lenient pipeline run lost, and where.

    ``coverage`` is the fraction of observed devices that made it all
    the way through; ``exemplars`` holds up to
    :data:`MAX_EXEMPLAR_FAILURES` verbatim failures for debugging while
    ``n_failed_by_stage`` always counts everything.
    """

    n_devices_total: int = 0
    n_devices_ok: int = 0
    n_failed_by_stage: Counter = field(default_factory=Counter)
    exemplars: List[StageFailure] = field(default_factory=list)
    classifier_fallback: bool = False
    #: Row-level losses from lenient ingest (partition-backed runs);
    #: None when the run's input never passed through the ingest layer.
    ingest: Optional[IngestReport] = None

    @property
    def n_devices_failed(self) -> int:
        return sum(self.n_failed_by_stage.values())

    @property
    def coverage(self) -> float:
        if self.n_devices_total == 0:
            return 1.0
        return self.n_devices_ok / self.n_devices_total

    @property
    def ok(self) -> bool:
        return self.n_devices_failed == 0 and not self.classifier_fallback

    def record_failure(self, device_id: str, stage: str, error: Exception) -> None:
        self.add(StageFailure.of(device_id, stage, error))

    def add(self, failure: StageFailure) -> None:
        """Count one failure, keeping it verbatim while exemplars last."""
        self.n_failed_by_stage[failure.stage] += 1
        if len(self.exemplars) < MAX_EXEMPLAR_FAILURES:
            self.exemplars.append(failure)

    def merge(self, other: "DegradationReport") -> "DegradationReport":
        """Combine two per-shard reports into one whole-run report.

        Totals and per-stage counters sum; ``classifier_fallback`` ORs.
        Exemplars are re-sorted by device ID and re-capped so the merged
        report keeps the same exemplars a serial run (which visits
        devices in sorted order) would have kept, regardless of how
        devices were sharded.  The inputs are left untouched.
        """
        exemplars = sorted(
            self.exemplars + other.exemplars, key=lambda f: f.device_id
        )[:MAX_EXEMPLAR_FAILURES]
        if self.ingest is None:
            ingest = other.ingest
        elif other.ingest is None:
            ingest = self.ingest
        else:
            ingest = self.ingest.merge(other.ingest)
        return DegradationReport(
            n_devices_total=self.n_devices_total + other.n_devices_total,
            n_devices_ok=self.n_devices_ok + other.n_devices_ok,
            n_failed_by_stage=self.n_failed_by_stage + other.n_failed_by_stage,
            exemplars=exemplars,
            classifier_fallback=self.classifier_fallback or other.classifier_fallback,
            ingest=ingest,
        )


@dataclass
class PipelineResult:
    """Everything derived from one MNO dataset."""

    dataset: MNODataset
    day_records: List[DeviceDayRecord]
    summaries: Dict[str, DeviceSummary]
    classifications: Dict[str, Classification]
    labeler: RoamingLabeler
    degradation: Optional[DegradationReport] = None
    #: Recovery record from the resilient pool seam / durable runtime;
    #: None for serial, non-durable runs (nothing to recover from).
    health: Optional["RunHealth"] = None


def quarantine_devices(
    builder: CatalogBuilder,
    radio_events: ColumnarRadioEvents,
    service_records: ColumnarServiceRecords,
) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary], List[StageFailure], int]:
    """Per-device catalog + summary, quarantining the devices that fail.

    Row indices are grouped per device id straight from the interned
    columns; each device's rows are ``select``-ed into their own stores
    and run through :meth:`CatalogBuilder.build_day_records` (stage
    ``"catalog"``) and :meth:`CatalogBuilder.summarize` (stage
    ``"summary"``) in sorted device order.  Returns the survivors' day
    records (sorted by device, day) and summaries, every failure, and
    the number of devices seen.  The serial, sharded and durable lenient
    paths all quarantine through this one function.
    """
    radio_rows: Dict[int, array] = defaultdict(partial(array, "q"))
    for i, dev in enumerate(radio_events.device_ids):
        radio_rows[dev].append(i)
    service_rows: Dict[int, array] = defaultdict(partial(array, "q"))
    for i, dev in enumerate(service_records.device_ids):
        service_rows[dev].append(i)
    lookup = radio_events.pools.devices.lookup
    ids_by_name = {lookup(dev): dev for dev in radio_rows.keys() | service_rows.keys()}
    tacs = radio_events.tacs

    day_records: List[DeviceDayRecord] = []
    summaries: Dict[str, DeviceSummary] = {}
    failures: List[StageFailure] = []
    for device_id in sorted(ids_by_name):
        dev = ids_by_name[device_id]
        radio = radio_rows.get(dev, ())
        try:
            records = builder.build_day_records(
                radio_events.select(radio),
                service_records.select(service_rows.get(dev, ())),
            )
        except Exception as exc:
            failures.append(StageFailure.of(device_id, "catalog", exc))
            continue
        tac_of = {device_id: tacs[radio[0]]} if radio else {}
        try:
            summaries.update(builder.summarize(records, tac_of))
        except Exception as exc:
            failures.append(StageFailure.of(device_id, "summary", exc))
            continue
        day_records.extend(records)
    return day_records, summaries, failures, len(ids_by_name)


def _lenient_catalog_stage(
    builder: CatalogBuilder,
    radio_events: ColumnarRadioEvents,
    service_records: ColumnarServiceRecords,
) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary], DegradationReport]:
    """:func:`quarantine_devices` with its failures in a report.

    The unit the shard layer (:mod:`repro.parallel`) fans out: each
    worker runs this over its shard's columns and the partial results —
    including the :class:`DegradationReport` — merge into exactly what a
    serial pass over all devices produces.
    """
    day_records, summaries, failures, n_devices = quarantine_devices(
        builder, radio_events, service_records
    )
    report = DegradationReport(n_devices_total=n_devices)
    for failure in failures:
        report.add(failure)
    return day_records, summaries, report


def _lenient_classify_stage(
    summaries: Dict[str, DeviceSummary],
    classifier: DeviceClassifier,
    report: DegradationReport,
) -> Dict[str, Classification]:
    """Batch classification with per-device fallback (lenient mode).

    Classification propagates properties *across* devices sharing a
    (manufacturer, model), so the batch call is the real thing; if one
    device poisons the batch, degrade to per-device classification —
    weaker (no propagation) but isolating.
    """
    classifications: Dict[str, Classification]
    try:
        classifications = classifier.classify(summaries)
    except Exception:
        report.classifier_fallback = True
        classifications = {}
        for device_id, summary in summaries.items():
            try:
                classifications.update(classifier.classify({device_id: summary}))
            except Exception as exc:
                report.record_failure(device_id, "classify", exc)
    return classifications


def resolve_workers(
    n_workers: Union[int, str], n_rows: Optional[int] = None
) -> int:
    """Resolve an ``n_workers`` argument (int or ``"auto"``) to a count.

    ``"auto"`` stays serial on boxes with ``os.cpu_count() <= 2`` (the
    committed bench shows 2 workers running at 0.28x serial — pool spawn
    and pickling swamp the win) and on small inputs
    (< :data:`AUTO_PARALLEL_MIN_ROWS` rows when ``n_rows`` is known);
    otherwise it uses up to four workers, past which the shard merge is
    the bottleneck.
    """
    if n_workers == "auto":
        cpus = os.cpu_count() or 1
        if cpus <= 2:
            return 1
        if n_rows is not None and n_rows < AUTO_PARALLEL_MIN_ROWS:
            return 1
        return min(cpus, 4)
    if not isinstance(n_workers, int):
        raise ValueError(f"n_workers must be an int or 'auto', got {n_workers!r}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def run_pipeline(
    dataset: MNODataset,
    ecosystem: Ecosystem,
    classifier_config: Optional[ClassifierConfig] = None,
    compute_mobility: bool = True,
    lenient: bool = False,
    n_workers: Union[int, str] = "auto",
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    out_of_core: bool = False,
) -> PipelineResult:
    """Run catalog building, labeling and classification end to end.

    With ``lenient=True`` stage failures quarantine the offending device
    instead of raising, and ``result.degradation`` reports coverage;
    strict mode (default) raises on the first failure and leaves
    ``degradation`` as None.

    ``n_workers > 1`` shards the hot stages by device across a process
    pool (:mod:`repro.parallel`); the merged output is byte-identical to
    the serial run at any worker count.  ``n_workers=1`` takes the exact
    serial code path — no pool, no sharding — and the default
    ``"auto"`` picks a count from the machine and input size
    (:func:`resolve_workers`), staying serial whenever the committed
    benches say the pool would lose.

    The record streams are dictionary-encoded once per run
    (:func:`~repro.columnar.store.from_record_streams`), and every
    path — strict or lenient, serial or sharded — runs the catalog
    kernel over those interned columns.

    ``checkpoint_dir`` makes the run *durable*: the pipeline executes
    day by day through :mod:`repro.runtime`, checkpointing each
    ``(day, shard)`` unit atomically so a killed run can be continued
    with ``resume=True`` to a byte-identical result.  ``resume`` is
    only meaningful with a checkpoint directory.

    ``out_of_core=True`` runs the same day-by-day execution with spilled
    column blocks replayed through an mmap-backed LRU window
    (:mod:`repro.runtime.spill`) so peak RSS is bounded by the shard
    window instead of the population; without a ``checkpoint_dir`` the
    spill store is an ephemeral directory removed with the run.  Output
    stays byte-identical to the in-memory path.
    """
    n_workers = resolve_workers(
        n_workers, len(dataset.radio_events) + len(dataset.service_records)
    )
    if checkpoint_dir is not None or out_of_core:
        # Imported lazily: repro.runtime sits on top of repro.parallel,
        # which imports this module.
        from repro.runtime.run import run_durable_pipeline

        return run_durable_pipeline(
            dataset,
            ecosystem,
            checkpoint_dir,
            resume=resume,
            classifier_config=classifier_config,
            compute_mobility=compute_mobility,
            lenient=lenient,
            n_workers=n_workers,
            out_of_core=out_of_core,
        )
    if resume:
        raise ValueError("resume=True requires a checkpoint_dir")
    labeler = RoamingLabeler(ecosystem.operators, dataset.observer)
    builder = CatalogBuilder(
        dataset.tac_db,
        dataset.sector_catalog,
        labeler,
        compute_mobility=compute_mobility,
    )
    classifier = DeviceClassifier(classifier_config)
    degradation: Optional[DegradationReport] = None
    health: Optional["RunHealth"] = None
    if n_workers > 1:
        # Imported lazily: repro.parallel pulls in concurrent.futures and
        # is only needed when a pool is actually requested.
        from repro.parallel.executor import run_stages_sharded
        from repro.parallel.health import RunHealth as _RunHealth

        health = _RunHealth()
        day_records, summaries, classifications, degradation = run_stages_sharded(
            dataset,
            builder,
            classifier,
            n_workers=n_workers,
            lenient=lenient,
            health=health,
        )
    else:
        events, records = from_record_streams(
            dataset.radio_events, dataset.service_records
        )
        if lenient:
            day_records, summaries, degradation = _lenient_catalog_stage(
                builder, events, records
            )
            classifications = _lenient_classify_stage(
                summaries, classifier, degradation
            )
            degradation.n_devices_ok = len(classifications)
        else:
            day_records, summaries = builder.build_from_columns(events, records)
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
