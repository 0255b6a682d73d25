"""Sharded execution of the pipeline's catalog stage, with exact merge.

The fan-out is shard-by-device (:mod:`repro.parallel.sharding`): every
record of a device lands in one shard, so per-shard accumulators never
see partial devices.  Two properties make the merged output
**byte-identical** to a serial :func:`repro.pipeline.run_pipeline` at
any worker count:

1. *Per-device purity of the catalog.*  ``CatalogBuilder`` aggregates
   strictly within a device, so a shard's day records and summaries are
   the serial results restricted to the shard's devices.
2. *Order-normalizing merge.*  Day records are re-sorted by
   ``(device_id, day)`` and summaries by device ID — the serial order —
   and classification then runs once, in the parent, over the merged
   summaries: the very call the serial pipeline makes, so even the
   classification dict's insertion order matches by construction.

In lenient mode each worker's builder quarantines its shard's failing
devices (:attr:`~repro.core.catalog.CatalogBuilder.quarantined`); the
parent concatenates every shard's failures and builds the
:class:`~repro.pipeline.DegradationReport` once, beside the batch
classification, exactly as the serial run does.

The parent takes the dataset's interned columns (a simulated dataset
carries them; any other is dictionary-encoded once), shards them, and
each shard crosses the pool pipe as one self-contained column block
(:func:`publish_shards`, the codec checkpoints and the WAL use).  A
worker returns its day records, summaries and failures as one plain
tuple, which the pool pickles like any other result (the in-process
fallback passes it by reference).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.blocks import pack_columns, unpack_day_block
from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    from_record_streams,
)
from repro.core.catalog import (
    CatalogBuilder,
    DeviceDayRecord,
    DeviceSummary,
    StageFailure,
)
from repro.core.classifier import Classification, DeviceClassifier
from repro.datasets.containers import MNODataset
from repro.parallel.health import RunHealth
from repro.parallel.pool import DEFAULT_SHARD_DEADLINE_S, get_context, map_shards
from repro.parallel.sharding import shard_columnar_records
from repro.pipeline import DegradationReport, _lenient_classify

#: One worker's result: its shard's day records, summaries and the
#: devices a lenient build left out.
ShardResult = Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary], List[StageFailure]]


def publish_shards(
    shards: Sequence[Tuple[ColumnarRadioEvents, ColumnarServiceRecords]],
) -> List[bytes]:
    """Pack each shard into one self-contained column block, in order."""
    return [pack_columns(events, records) for events, records in shards]


# -- worker task (module-level so it pickles by name) ------------------------

def _build_shard_block(block: bytes) -> ShardResult:
    """Decode a shard block, build it, return the result and its failures.

    The failures are read right after this build, which replaces the
    builder's :attr:`~repro.core.catalog.CatalogBuilder.quarantined`,
    so shards run in process on one builder never see each other's.
    """
    builder, lenient = get_context()
    events, services = unpack_day_block(block)
    records, summaries = builder.build_from_columns(events, services, lenient=lenient)
    failures = list(builder.quarantined.values()) if lenient else []
    return records, summaries, failures


# -- entry point -------------------------------------------------------------

def run_stages_sharded(
    dataset: MNODataset,
    builder: CatalogBuilder,
    classifier: DeviceClassifier,
    n_workers: int,
    lenient: bool = False,
    health: Optional[RunHealth] = None,
) -> Tuple[
    List[DeviceDayRecord],
    Dict[str, DeviceSummary],
    Dict[str, Classification],
    Optional[DegradationReport],
]:
    """Run catalog → summaries → classification sharded by device.

    Returns the same ``(day_records, summaries, classifications,
    degradation)`` tuple the serial pipeline builds, byte-identical to
    it.  The dataset is split into ``n_workers`` device shards, each
    packed into a column block for one worker; workers build the
    catalog and return their results as objects, and the parent merges
    them and classifies the merged summaries.

    Every shard is waited on with the pool seam's default deadline, and
    ``health`` collects any recovery events the seam had to take.
    Recovery never changes output — a recovered shard re-executes the
    same pure function over the same block.
    """
    events, records = dataset.columns or from_record_streams(
        dataset.radio_events, dataset.service_records
    )
    shards = shard_columnar_records(events, records, n_workers)
    del events, records
    blocks = publish_shards(shards)
    del shards
    results = map_shards(
        _build_shard_block,
        blocks,
        n_workers,
        context=(builder, lenient),
        deadline_s=DEFAULT_SHARD_DEADLINE_S,
        health=health,
    )
    del blocks
    day_records: List[DeviceDayRecord] = []
    merged: Dict[str, DeviceSummary] = {}
    failures: List[StageFailure] = []
    for part_records, part_summaries, part_failures in results:
        day_records.extend(part_records)
        merged.update(part_summaries)
        failures.extend(part_failures)
    day_records.sort(key=lambda r: (r.device_id, r.day))
    summaries = {device_id: merged[device_id] for device_id in sorted(merged)}
    if not lenient:
        return day_records, summaries, classifier.classify(summaries), None
    # Classification runs once over the merged summaries, so a poisoned
    # batch degrades the whole run, not just its shard, as in serial.
    classifications, report = _lenient_classify(summaries, failures, classifier)
    return day_records, summaries, classifications, report
