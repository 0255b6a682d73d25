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

Lenient mode also merges the per-shard
:class:`~repro.pipeline.DegradationReport` partials with
:meth:`~repro.pipeline.DegradationReport.merge` before the parent's
batch classification, so the poisoned-batch fallback stays exactly
serial.

The dataset is dictionary-encoded once in the parent, sharded, and each
shard crosses the pool pipe as one self-contained column block
(:func:`~repro.parallel.transport.publish_shards`); workers return
packed day-record/summary blocks.  Nothing is pickled per row in
either direction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.columnar.blocks import unpack_day_block
from repro.columnar.store import from_record_streams
from repro.core.catalog import CatalogBuilder, DeviceDayRecord, DeviceSummary
from repro.core.classifier import Classification, DeviceClassifier
from repro.datasets.containers import MNODataset
from repro.parallel.health import RunHealth
from repro.parallel.pool import DEFAULT_SHARD_DEADLINE_S, get_context, map_shards
from repro.parallel.sharding import shard_columnar_records
from repro.parallel.transport import (
    pack_build_result,
    pack_lenient_result,
    publish_shards,
    unpack_build_result,
    unpack_lenient_result,
)
from repro.pipeline import (
    DegradationReport,
    _lenient_catalog_stage,
    _lenient_classify_stage,
)


# -- worker tasks (module-level so they pickle by name) ----------------------

def _build_shard_block(block: bytes) -> bytes:
    """Strict-mode worker: decode a shard block, build, pack the result."""
    builder = get_context()
    events, services, _ = unpack_day_block(block)
    return pack_build_result(*builder.build_from_columns(events, services))


def _lenient_shard_block(block: bytes) -> bytes:
    """Lenient-mode worker: decode, quarantine-build, pack the result."""
    builder = get_context()
    events, services, _ = unpack_day_block(block)
    return pack_lenient_result(*_lenient_catalog_stage(builder, events, services))


# -- merge helpers -----------------------------------------------------------

def _merge_summaries(
    parts: List[Dict[str, DeviceSummary]],
) -> Dict[str, DeviceSummary]:
    """Union the per-shard summary dicts in serial (device-ID) order."""
    merged: Dict[str, DeviceSummary] = {}
    for part in parts:
        merged.update(part)
    return {device_id: merged[device_id] for device_id in sorted(merged)}


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
    catalog and return packed result blocks, and the parent merges them
    and classifies the merged summaries.

    Every shard is waited on with the pool seam's default deadline, and
    ``health`` collects any recovery events the seam had to take.
    Recovery never changes output — a recovered shard re-executes the
    same pure function over the same block.
    """
    events, records = from_record_streams(
        dataset.radio_events, dataset.service_records
    )
    shards = shard_columnar_records(events, records, n_workers)
    del events, records
    blocks = publish_shards(shards)
    del shards
    worker = _lenient_shard_block if lenient else _build_shard_block
    results = map_shards(
        worker,
        blocks,
        n_workers,
        context=builder,
        deadline_s=DEFAULT_SHARD_DEADLINE_S,
        health=health,
    )
    del blocks
    if not lenient:
        parts = [unpack_build_result(result) for result in results]
        day_records = [record for part, _ in parts for record in part]
        day_records.sort(key=lambda r: (r.device_id, r.day))
        summaries = _merge_summaries([part for _, part in parts])
        return day_records, summaries, classifier.classify(summaries), None

    lenient_parts = [unpack_lenient_result(result) for result in results]
    day_records = [record for part, _, _ in lenient_parts for record in part]
    day_records.sort(key=lambda r: (r.device_id, r.day))
    summaries = _merge_summaries([part for _, part, _ in lenient_parts])
    report = DegradationReport()
    for _, _, partial in lenient_parts:
        report = report.merge(partial)
    # Batch classification with fallback runs over the merged summaries
    # so the poisoned-batch semantics stay exactly serial (a poisoned
    # shard must degrade the whole batch, not just its shard).
    classifications = _lenient_classify_stage(summaries, classifier, report)
    report.n_devices_ok = len(classifications)
    return day_records, summaries, classifications, report
