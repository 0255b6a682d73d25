"""Sharded execution of the pipeline's hot stages, with exact merge.

The fan-out is shard-by-device (:mod:`repro.parallel.sharding`): every
record of a device lands in one shard, so per-shard accumulators never
see partial devices.  Three properties make the merged output
**byte-identical** to a serial :func:`repro.pipeline.run_pipeline` at
any worker count:

1. *Per-device purity of the catalog.*  ``CatalogBuilder`` aggregates
   strictly within a device, so a shard's day records and summaries are
   the serial results restricted to the shard's devices.
2. *Union-mergeable classifier evidence.*  Step 1 of the classifier is
   a pure per-APN function, so step-1 evidence (validated APNs, M2M
   property keys) collected per shard unions into the global evidence;
   re-running classification per shard with the global key set then
   reproduces the serial per-device decisions, including cross-shard
   property propagation.
3. *Order-normalizing merge.*  Day records are re-sorted by
   ``(device_id, day)``, summaries by device ID, and classifications are
   re-inserted in the serial pass's step order (step-1 devices first,
   then step-2, then the rest, each in summary order) — so even
   container iteration order matches the serial run.

Lenient mode shards the catalog/summary stage (the expensive part) and
merges the per-shard :class:`~repro.pipeline.DegradationReport` partials
with :meth:`~repro.pipeline.DegradationReport.merge`; the classification
stage then runs over the merged summaries in the parent so the batch
poisoning/fallback semantics stay exactly the serial ones.

The dataset is dictionary-encoded once in the parent and sharded as
interned column blocks.  Runs that actually fan out exchange them
through :mod:`repro.parallel.transport`: shards are parked as
shared-memory column segments (or self-contained RPCK blocks on the
fallback transport), workers attach via tiny descriptors, and results
come back as packed column/summary blocks — no per-row pickling in
either direction.  The in-process paths (``n_workers == 1`` or a single
shard) skip the exchange and hand the column blocks over directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    from_record_streams,
)
from repro.core.catalog import CatalogBuilder, DeviceDayRecord, DeviceSummary
from repro.core.classifier import Classification, ClassificationStep, DeviceClassifier
from repro.datasets.containers import MNODataset
from repro.faults.retry import RetryPolicy
from repro.parallel.health import RunHealth
from repro.parallel.pool import DEFAULT_SHARD_DEADLINE_S, get_context, map_shards
from repro.parallel.sharding import shard_columnar_records
from repro.parallel.transport import (
    ShardDescriptor,
    attach_shard,
    pack_build_result,
    pack_classifications,
    pack_classify_payload,
    pack_lenient_result,
    publish_shards,
    unpack_build_result,
    unpack_classifications,
    unpack_classify_payload,
    unpack_lenient_result,
)
from repro.pipeline import (
    DegradationReport,
    _lenient_catalog_stage,
    _lenient_classify_stage,
)

#: A shard payload: one device subset's interned column blocks.
ShardPayload = Tuple[ColumnarRadioEvents, ColumnarServiceRecords]


# -- worker tasks (module-level so they pickle by name) ----------------------

def _build_shard(
    payload: ShardPayload,
) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary], Set[Tuple[str, str]]]:
    """Strict-mode worker: catalog + summaries + step-1 evidence."""
    builder, classifier = get_context()
    events, services = payload
    records, summaries = builder.build_from_columns(events, services)
    _, m2m_keys = classifier.collect_m2m_evidence(summaries)
    return records, summaries, m2m_keys


def _classify_shard(
    payload: Tuple[Dict[str, DeviceSummary], Set[Tuple[str, str]]],
) -> Dict[str, Classification]:
    """Strict-mode worker: classify one shard against global evidence."""
    _, classifier = get_context()
    summaries, global_keys = payload
    return classifier.classify(summaries, extra_m2m_property_keys=global_keys)


def _lenient_shard(
    payload: ShardPayload,
) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary], DegradationReport]:
    """Lenient-mode worker: quarantining catalog stage over one shard."""
    builder, _ = get_context()
    events, services = payload
    return _lenient_catalog_stage(builder, events, services)


# -- zero-copy exchange workers (descriptor in, packed block out) ------------

def _build_shard_block(descriptor: ShardDescriptor) -> bytes:
    """Strict-mode worker: attach a shard, build, return a packed block."""
    builder, classifier = get_context()
    events, services = attach_shard(descriptor)
    records, summaries = builder.build_from_columns(events, services)
    _, m2m_keys = classifier.collect_m2m_evidence(summaries)
    return pack_build_result(records, summaries, m2m_keys)


def _classify_shard_block(payload: bytes) -> bytes:
    """Strict-mode worker: classify one packed summary block."""
    _, classifier = get_context()
    summaries, global_keys = unpack_classify_payload(payload)
    return pack_classifications(
        classifier.classify(summaries, extra_m2m_property_keys=global_keys)
    )


def _lenient_shard_block(descriptor: ShardDescriptor) -> bytes:
    """Lenient-mode worker: attach, quarantine-build, pack the result."""
    builder, _ = get_context()
    events, services = attach_shard(descriptor)
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


def _serial_order_classifications(
    parts: List[Dict[str, Classification]],
    summaries: Dict[str, DeviceSummary],
) -> Dict[str, Classification]:
    """Rebuild the serial run's classification insertion order.

    The serial pass inserts step-1 devices first, then step-2, then
    steps 3–4, each in summary order; reproducing that order makes the
    merged dict indistinguishable from the serial one even under
    ``list(...)``/iteration comparisons.
    """
    merged: Dict[str, Classification] = {}
    for part in parts:
        merged.update(part)
    ordered: Dict[str, Classification] = {}
    for step in (ClassificationStep.APN_KEYWORD, ClassificationStep.PROPERTY_PROPAGATION):
        for device_id in summaries:
            cls = merged.get(device_id)
            if cls is not None and cls.step is step:
                ordered[device_id] = cls
    for device_id in summaries:
        if device_id not in ordered and device_id in merged:
            ordered[device_id] = merged[device_id]
    return ordered


# -- entry point -------------------------------------------------------------

def run_stages_sharded(
    dataset: MNODataset,
    builder: CatalogBuilder,
    classifier: DeviceClassifier,
    n_workers: int,
    lenient: bool = False,
    n_shards: Optional[int] = None,
    shard_deadline_s: Optional[float] = DEFAULT_SHARD_DEADLINE_S,
    retry_policy: Optional[RetryPolicy] = None,
    health: Optional[RunHealth] = None,
    transport: Optional[str] = None,
) -> Tuple[
    List[DeviceDayRecord],
    Dict[str, DeviceSummary],
    Dict[str, Classification],
    Optional[DegradationReport],
]:
    """Run catalog → summaries → classification sharded by device.

    Returns the same ``(day_records, summaries, classifications,
    degradation)`` tuple the serial pipeline builds, byte-identical to
    it.  ``n_shards`` defaults to ``n_workers``; any value produces the
    same output because the merge normalizes order completely.

    The dataset is dictionary-encoded once in the parent and each worker
    gets an interned column block
    (:func:`~repro.parallel.sharding.shard_columnar_records`).  When the
    pool is actually used (``n_workers > 1`` with multiple shards), the
    blocks travel through the zero-copy exchange
    (:func:`~repro.parallel.transport.publish_shards`): workers receive
    small segment descriptors and return packed column/summary blocks.
    ``transport`` picks the exchange transport explicitly (``"shm"`` /
    ``"rpck"``); the default consults ``REPRO_TRANSPORT`` and the
    platform (:func:`~repro.parallel.transport.select_transport`).

    ``shard_deadline_s`` bounds the wait on every shard (a hung worker
    is a shard failure, not a stalled run) and ``health`` collects any
    recovery events the pool seam had to take; both default to the
    seam's recovery behavior with no report.  Recovery never changes
    output — a recovered shard re-executes the same pure function over
    the same payload.
    """
    if n_shards is None:
        n_shards = n_workers
    events, records = from_record_streams(
        dataset.radio_events, dataset.service_records
    )
    shards = shard_columnar_records(events, records, n_shards)
    del events, records
    context = (builder, classifier)
    # The exchange pays off only when the pool is actually used; the
    # map_shards seam runs in-process for one worker or a single shard,
    # where packing blocks would be pure overhead.
    exchange = None
    if n_workers > 1 and len(shards) > 1:
        exchange = publish_shards(shards, transport=transport)

    if lenient:
        if exchange is not None:
            try:
                blocks = map_shards(
                    _lenient_shard_block,
                    exchange.descriptors,
                    n_workers,
                    context=context,
                    deadline_s=shard_deadline_s,
                    retry_policy=retry_policy,
                    health=health,
                )
            finally:
                exchange.close()
            parts = [unpack_lenient_result(block) for block in blocks]
        else:
            parts = map_shards(
                _lenient_shard,
                shards,
                n_workers,
                context=context,
                deadline_s=shard_deadline_s,
                retry_policy=retry_policy,
                health=health,
            )
        day_records = [record for part, _, _ in parts for record in part]
        day_records.sort(key=lambda r: (r.device_id, r.day))
        summaries = _merge_summaries([part for _, part, _ in parts])
        report = DegradationReport()
        for _, _, partial in parts:
            report = report.merge(partial)
        # Batch classification with fallback runs in the parent so the
        # poisoned-batch semantics stay exactly serial (a poisoned shard
        # must degrade the whole batch, not just its shard).
        classifications = _lenient_classify_stage(summaries, classifier, report)
        report.n_devices_ok = len(classifications)
        return day_records, summaries, classifications, report

    if exchange is not None:
        try:
            built_blocks = map_shards(
                _build_shard_block,
                exchange.descriptors,
                n_workers,
                context=context,
                deadline_s=shard_deadline_s,
                retry_policy=retry_policy,
                health=health,
            )
        finally:
            exchange.close()
        built = [unpack_build_result(block) for block in built_blocks]
    else:
        built = map_shards(
            _build_shard,
            shards,
            n_workers,
            context=context,
            deadline_s=shard_deadline_s,
            retry_policy=retry_policy,
            health=health,
        )
    day_records = [record for part, _, _ in built for record in part]
    day_records.sort(key=lambda r: (r.device_id, r.day))
    summaries = _merge_summaries([part for _, part, _ in built])
    global_keys: Set[Tuple[str, str]] = set()
    for _, _, keys in built:
        global_keys.update(keys)
    if exchange is not None:
        packed_payloads = [
            pack_classify_payload(part, global_keys) for _, part, _ in built if part
        ]
        classified_blocks = map_shards(
            _classify_shard_block,
            packed_payloads,
            n_workers,
            context=context,
            deadline_s=shard_deadline_s,
            retry_policy=retry_policy,
            health=health,
        )
        classified = [unpack_classifications(block) for block in classified_blocks]
    else:
        classify_payloads = [(part, global_keys) for _, part, _ in built if part]
        classified = map_shards(
            _classify_shard,
            classify_payloads,
            n_workers,
            context=context,
            deadline_s=shard_deadline_s,
            retry_policy=retry_policy,
            health=health,
        )
    classifications = _serial_order_classifications(classified, summaries)
    return day_records, summaries, classifications, None
