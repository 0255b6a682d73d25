"""Standalone pipeline benchmark with baseline regression checking.

Times the pipeline's hot stages — catalog build, classification, the
sharded worker sweep (1/2/4), the cached vs uncached roaming-labeler
path, the out-of-core spill pipeline, and the live catalog daemon
(micro-batch ingest throughput and point-query p99) — and writes the
results as ``BENCH_pipeline.json``.  With ``--check`` it compares each
bench's ops/sec against a committed baseline, enforces the derived
speedup floors / overhead ceilings, and gates ``service_query_p99`` on
a hard latency SLO; any failure exits non-zero beyond ``--tolerance``
(default 20%), which is how CI's perf job gates merges.

``--scale`` sweeps the out-of-core pipeline across device counts, one
subprocess per point (each child's ``ru_maxrss`` is then a clean
per-scale watermark, not this process's accumulated high-water mark),
generating input day by day through the streaming simulator so peak
RSS measures the execution engine, not dataset materialization.  Under
``--check``, every exact 10x device step must grow peak RSS by less
than :data:`SCALE_RSS_CEILING` (3x) — the sublinear-memory acceptance
criterion for out-of-core execution.  ``--scale-only`` skips the main
benches; CI's scale_smoke job runs exactly that.

Usage::

    PYTHONPATH=src python tools/bench_compare.py --out BENCH_pipeline.json
    PYTHONPATH=src python tools/bench_compare.py --smoke --check
    PYTHONPATH=src python tools/bench_compare.py --smoke --write-baseline
    PYTHONPATH=src python tools/bench_compare.py --scale-only --check

Numbers are honest wall-clock measurements on whatever machine runs the
tool; the ``meta`` block records ``cpu_count`` so a 1-core container's
worker sweep (where pool overhead dominates and speedup < 1) is
interpretable next to a multi-core run.  Worker-sweep speedup floors
(``speedup_workers_4`` >= 2x) are enforced only when the runner has at
least :data:`MIN_CORES_FOR_WORKER_GATES` cores — below that the gate is
skipped with a loud note, because the number measures the machine, not
the code.  CI's perf job must therefore run on a multi-core runner (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.columnar import from_record_streams  # noqa: E402
from repro.core.catalog import CatalogBuilder  # noqa: E402
from repro.core.classifier import DeviceClassifier  # noqa: E402
from repro.core.roaming import RoamingLabeler  # noqa: E402
from repro.datasets.io import (  # noqa: E402
    radio_event_to_dict,
    service_record_to_dict,
)
from repro.ecosystem import Ecosystem, EcosystemConfig, build_default_ecosystem  # noqa: E402
from repro.mno import MNOConfig, simulate_mno_dataset  # noqa: E402
from repro.parallel.sharding import (  # noqa: E402
    shard_columnar_records,
    shard_mno_records,
)
from repro.parallel.transport import (  # noqa: E402
    TRANSPORT_RPCK,
    TRANSPORT_SHM,
    attach_shard,
    publish_shards,
    select_transport,
)
from repro.pipeline import run_pipeline  # noqa: E402
from repro.runtime import atomic_write_text, run_durable_pipeline  # noqa: E402
from repro.service import CatalogClient, ServiceConfig  # noqa: E402
from repro.service.daemon import run_daemon  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"
SMOKE_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline_smoke.json"

#: Worker counts swept by the pipeline benches.
WORKER_SWEEP = (1, 2, 4)

#: Inner iterations for sub-millisecond benches (classify,
#: labeling_cached): one pass is too noisy to gate CI on.
FAST_BENCH_BATCH = 10

#: Hard acceptance floors on derived speedups, enforced by ``--check``
#: at full (non-smoke) scale: the incremental day-update must be at
#: least 5x a full catalog build.
SPEEDUP_FLOORS = {
    "incremental_day_speedup": 5.0,
    "shard_payload_reduction": 10.0,
}

#: Worker-sweep speedup floors.  Unlike :data:`SPEEDUP_FLOORS` these
#: measure the *machine* as much as the code — a 1-core container can
#: never show a 2x four-worker speedup — so ``--check`` enforces them
#: only when the runner has at least :data:`MIN_CORES_FOR_WORKER_GATES`
#: cores, and otherwise skips with a loud note.
WORKER_SPEEDUP_FLOORS = {
    "speedup_workers_4": 2.0,
}

#: Minimum ``os.cpu_count()`` for the worker-sweep gates to be
#: meaningful; CI's perf job must provision at least this many cores.
MIN_CORES_FOR_WORKER_GATES = 4

#: Shards used by the ``shard_exchange`` payload/attach bench.
EXCHANGE_SHARDS = 4

#: Hard acceptance ceilings on derived overhead ratios, enforced by
#: ``--check`` at full scale: checkpointing every (day, shard) unit may
#: cost at most 10% over the identical un-persisted run, and the
#: out-of-core spill path (per-unit write + fsync, mmap-backed replay)
#: at most 25% — the price of bounded RSS.
OVERHEAD_CEILINGS = {
    "checkpoint_overhead": 1.10,
    "out_of_core_overhead": 1.25,
}

#: The smoke run uses looser ceilings: per-unit persistence costs
#: (manifest, journal line, block fsyncs) are fixed while the 300-device
#: units carry ~20x fewer rows, so the relative overhead is inherently
#: higher than at contract scale.  Smoke only guards against gross
#: regressions; the full-scale contracts are asserted by the perf job.
SMOKE_OVERHEAD_CEILINGS = {
    "checkpoint_overhead": 1.25,
    "out_of_core_overhead": 1.40,
}

#: Device counts swept by ``--scale`` when none are given.  The pair is
#: an exact 10x step, so the sublinear-RSS gate applies; larger sweeps
#: (e.g. ``--scale 300,3000,30000``) gate every 10x pair they contain.
DEFAULT_SCALE_POINTS = (300, 3000)

#: Peak-RSS growth ceiling across an exact 10x device step, enforced by
#: ``--check`` on the ``--scale`` sweep.  Out-of-core execution keeps
#: the *working set* bounded by the replay window, but the catalog's
#: own output (day records + summaries, ~1.5 KiB per device-day) is
#: live state the caller asked for and grows linearly — so the honest
#: criterion is strongly sublinear growth (< 3x per 10x devices), not a
#: flat line.
SCALE_RSS_CEILING = 3.0

#: One ``--scale`` point, run in a child process so ``ru_maxrss`` is a
#: clean per-scale watermark.  Input is generated day by day through
#: the streaming simulator and fed via ``day_source`` — the dataset is
#: never materialized whole — and the pipeline runs out-of-core with a
#: single-shard replay window, the configuration whose RSS the sweep is
#: certifying.  Prints one JSON line on stdout.
_SCALE_CHILD = """
import json
import resource
import sys
import time

from repro.datasets.containers import MNODataset
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig
from repro.mno.streaming import StreamingMNOSimulator
from repro.runtime import run_durable_pipeline

devices, seed = int(sys.argv[1]), int(sys.argv[2])
eco = build_default_ecosystem(EcosystemConfig(uk_sites=120, seed=11))
config = MNOConfig(n_devices=devices, seed=seed)
sim = StreamingMNOSimulator(eco, config)
skeleton = MNODataset(
    observer=eco.uk_mno,
    radio_events=[],
    service_records=[],
    tac_db=eco.tac_db,
    sector_catalog=eco.uk_sectors,
    window_days=config.window_days,
)
rows = [0]


def day_source(day):
    batch = sim.generate_day(day)
    rows[0] += batch.n_records
    return batch.radio_events, batch.service_records, None


start = time.perf_counter()
result = run_durable_pipeline(
    skeleton,
    eco,
    checkpoint_dir=None,
    compute_mobility=False,
    n_workers=1,
    out_of_core=True,
    max_resident_shards=1,
    day_source=day_source,
    days=range(config.window_days),
)
seconds = time.perf_counter() - start
print(json.dumps({
    "devices": devices,
    "rows": rows[0],
    "catalog_devices": len(result.summaries),
    "seconds": round(seconds, 3),
    "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
}))
"""

#: Rows per ingest micro-batch streamed at the live daemon.  Each fold
#: re-sends the touched day's accumulated slice through
#: ``CatalogBuilder.update``, so smaller batches measure a quadratically
#: worse path; 2000 rows matches a realistic collector flush.
SERVICE_BATCH_ROWS = 2000

#: Point queries timed by the ``service_query_p99`` bench (after one
#: untimed priming query pays the classification-cache refresh).
SERVICE_QUERY_SAMPLES = 200

#: Hard latency SLOs in milliseconds, enforced by ``--check`` at every
#: scale: a point query against the warm catalog is two dict lookups
#: plus a localhost round-trip, and must stay interactive no matter how
#: much history the daemon has folded in.
LATENCY_SLOS = {
    "service_query_p99": 50.0,
}


def _time_best(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall-clock seconds for one bench callable."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _service_batches(dataset: Any) -> List[Tuple[str, List[Dict[str, Any]]]]:
    """The dataset as tagged wire batches of ``SERVICE_BATCH_ROWS`` rows."""
    by_day: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for event in dataset.radio_events:
        row = radio_event_to_dict(event)
        row["kind"] = "radio"
        by_day[event.day].append(row)
    for record in dataset.service_records:
        row = service_record_to_dict(record)
        row["kind"] = "service"
        by_day[record.day].append(row)
    batches: List[Tuple[str, List[Dict[str, Any]]]] = []
    for day in sorted(by_day):
        rows = by_day[day]
        for start in range(0, len(rows), SERVICE_BATCH_ROWS):
            batches.append(
                (
                    f"day-{day}-{start // SERVICE_BATCH_ROWS:03d}",
                    rows[start : start + SERVICE_BATCH_ROWS],
                )
            )
    return batches


class _LiveDaemon:
    """One catalog daemon on a private event-loop thread, plus a client.

    The daemon shares this process (its RSS lands in ``ru_maxrss``) but
    not its thread, so the synchronous client below exercises the real
    socket path end to end.
    """

    def __init__(self, ecosystem: Ecosystem, checkpoint_dir: Path) -> None:
        started = threading.Event()
        ports: List[int] = []

        def _ready(port: int) -> None:
            ports.append(port)
            started.set()

        # Long snapshot interval: the timed window should measure the
        # ingest path, not happen to include a periodic fsync cycle.
        config = ServiceConfig(snapshot_interval_s=60.0)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                run_daemon(
                    ecosystem,
                    str(checkpoint_dir),
                    config=config,
                    ready_callback=_ready,
                )
            ),
            daemon=True,
        )
        self._thread.start()
        if not started.wait(timeout=30.0):
            raise RuntimeError("catalog daemon failed to start within 30s")
        self.client = CatalogClient("127.0.0.1", ports[0])
        self.client.wait_ready()

    def stop(self) -> None:
        self.client.shutdown()
        self._thread.join(timeout=30.0)


def _peak_rss_kb() -> int:
    """Peak RSS of this process so far, in KiB.

    ``ru_maxrss`` is a *monotone watermark* — it never goes down — so
    this raw figure reads as "the high-water mark as of now", not any
    one bench's allocation.  Per-bench reports therefore carry
    ``rss_delta_kb`` (watermark growth across that bench's timed
    window — 0 means the bench fit inside already-charged memory)
    alongside the raw ``peak_rss_kb`` watermark; attribute memory to a
    bench from the delta, never from the watermark.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_benches(devices: int, seed: int, repeats: int) -> Dict[str, Dict[str, float]]:
    """Run every bench; returns ``{bench: {seconds, ops_per_sec, ...}}``.

    Each entry also records ``rows_per_sec`` (record rows processed per
    wall-clock second, where a row count is meaningful for the bench)
    and ``peak_rss_kb`` (see :func:`_peak_rss_kb`).
    """
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=120, seed=11))
    dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=devices, seed=seed))
    n_rows = len(dataset.radio_events) + len(dataset.service_records)

    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    builder = CatalogBuilder(
        dataset.tac_db, dataset.sector_catalog, labeler, compute_mobility=False
    )
    events_c, records_c = from_record_streams(
        dataset.radio_events, dataset.service_records
    )
    _, summaries = builder.build_from_columns(events_c, records_c)

    pairs = [
        (record.sim_plmn, record.visited_plmn)
        for record in dataset.service_records[:20000]
    ]

    def fresh_builder() -> CatalogBuilder:
        return CatalogBuilder(
            dataset.tac_db,
            dataset.sector_catalog,
            RoamingLabeler(eco.operators, eco.uk_mno),
            compute_mobility=False,
        )

    benches: Dict[str, Callable[[], object]] = {}
    rows_per_op: Dict[str, int] = {}
    # Catalog kernel over pre-encoded stores: encoding happens once per
    # run in the real pipeline, so the kernel bench excludes it; the
    # interning cost is measured separately as `intern_pool`.
    benches["catalog_columnar"] = lambda: fresh_builder().build_from_columns(
        events_c, records_c
    )
    rows_per_op["catalog_columnar"] = n_rows

    benches["intern_pool"] = lambda: from_record_streams(
        dataset.radio_events, dataset.service_records
    )
    rows_per_op["intern_pool"] = n_rows

    # Incremental day-update: replay the window once, then alternate the
    # last day between its original slice and a mutated one (every 7th
    # radio row dropped) so every timed update crosses the change
    # detector and does real recompute work — repeating an identical
    # slice would short-circuit to a no-op and flatter the number.
    by_day_events = defaultdict(list)
    by_day_services = defaultdict(list)
    for event in dataset.radio_events:
        by_day_events[event.day].append(event)
    for record in dataset.service_records:
        by_day_services[record.day].append(record)
    days = sorted(set(by_day_events) | set(by_day_services))
    inc_builder = fresh_builder()
    for day in days:
        inc_builder.update(
            day, *from_record_streams(by_day_events[day], by_day_services[day])
        )
    last_day = days[-1]
    slice_full = (by_day_events[last_day], by_day_services[last_day])
    slice_mutated = (
        [e for i, e in enumerate(by_day_events[last_day]) if i % 7],
        by_day_services[last_day],
    )
    toggle: List[bool] = [False]

    def incremental_day() -> None:
        toggle[0] = not toggle[0]
        day_events, day_services = slice_mutated if toggle[0] else slice_full
        inc_builder.update(last_day, *from_record_streams(day_events, day_services))

    benches["catalog_incremental_day"] = incremental_day
    rows_per_op["catalog_incremental_day"] = len(slice_full[0]) + len(slice_full[1])

    def classify_batch() -> None:
        for _ in range(FAST_BENCH_BATCH):
            DeviceClassifier().classify(summaries)

    benches["classify"] = classify_batch
    rows_per_op["classify"] = FAST_BENCH_BATCH * len(summaries)
    for n_workers in WORKER_SWEEP:
        benches[f"pipeline_workers_{n_workers}"] = (
            lambda w=n_workers: run_pipeline(
                dataset, eco, compute_mobility=False, n_workers=w
            )
        )
        rows_per_op[f"pipeline_workers_{n_workers}"] = n_rows

    def label_uncached() -> None:
        fresh = RoamingLabeler(eco.operators, eco.uk_mno, cache=False)
        for sim, visited in pairs:
            fresh.label(sim, visited)

    warm = RoamingLabeler(eco.operators, eco.uk_mno)
    for sim, visited in pairs:  # prime the cache so the bench times hits
        warm.label(sim, visited)

    def label_cached() -> None:
        for _ in range(FAST_BENCH_BATCH):
            for sim, visited in pairs:
                warm.label(sim, visited)

    benches["labeling_uncached"] = label_uncached
    benches["labeling_cached"] = label_cached
    rows_per_op["labeling_uncached"] = len(pairs)
    rows_per_op["labeling_cached"] = FAST_BENCH_BATCH * len(pairs)

    # Durable-runtime overhead: the same unit-sharded execution with and
    # without checkpoint persistence (manifest + journal + one CRC-framed
    # block per (day, shard) unit).  Each checkpointed pass needs a
    # virgin directory — an existing manifest without resume=True is,
    # correctly, an error — so the callable rotates subdirectories.
    ckpt_parent = Path(tempfile.mkdtemp(prefix="bench_ckpt_"))
    ckpt_counter = [0]

    def durable_checkpointed() -> None:
        ckpt_counter[0] += 1
        target = ckpt_parent / f"run_{ckpt_counter[0]:03d}"
        try:
            run_durable_pipeline(
                dataset, eco, checkpoint_dir=target,
                compute_mobility=False, n_workers=1,
            )
        finally:
            shutil.rmtree(target, ignore_errors=True)

    def durable_baseline() -> None:
        run_durable_pipeline(
            dataset, eco, checkpoint_dir=None, compute_mobility=False, n_workers=1
        )

    def durable_out_of_core() -> None:
        # checkpoint_dir=None + out_of_core spills to an ephemeral
        # directory created and removed inside the run: every unit block
        # is written + fsynced once and replayed through the mmap-backed
        # window, the full price of bounded RSS.
        run_durable_pipeline(
            dataset, eco, checkpoint_dir=None,
            compute_mobility=False, n_workers=1, out_of_core=True,
        )

    results: Dict[str, Dict[str, float]] = {}
    for name, fn in benches.items():
        rss_before = _peak_rss_kb()
        seconds = _time_best(fn, repeats)
        rss_after = _peak_rss_kb()
        results[name] = {
            "seconds": round(seconds, 6),
            "ops_per_sec": round(1.0 / seconds, 4) if seconds > 0 else float("inf"),
            "rows_per_sec": (
                round(rows_per_op[name] / seconds, 1) if seconds > 0 else float("inf")
            ),
            "peak_rss_kb": rss_after,
            "rss_delta_kb": rss_after - rss_before,
        }
        print(
            f"  {name:<24} {seconds:8.4f}s  "
            f"({results[name]['ops_per_sec']:.2f} ops/s, "
            f"{results[name]['rows_per_sec']:,.0f} rows/s, "
            f"rss +{results[name]['rss_delta_kb']} KiB)"
        )
    # Zero-copy exchange: what actually crosses the pool seam, per
    # transport, for the same device-sharded dataset.  Byte counts are
    # deterministic (they gate `shard_payload_reduction`); attach times
    # are best-of-N over a full all-shards pass.  The pickle-rows
    # figure serializes the legacy row-shard payload with the same
    # protocol the pool pipe uses.
    col_shards = shard_columnar_records(events_c, records_c, EXCHANGE_SHARDS)
    row_shards = shard_mno_records(
        dataset.radio_events, dataset.service_records, EXCHANGE_SHARDS
    )
    rss_before = _peak_rss_kb()
    pickled_rows = [
        pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL)
        for shard in row_shards
    ]
    pickle_payload_bytes = sum(len(blob) for blob in pickled_rows)
    pickle_attach_s = _time_best(
        lambda: [pickle.loads(blob) for blob in pickled_rows], repeats
    )
    del pickled_rows, row_shards

    with publish_shards(col_shards, transport=TRANSPORT_RPCK) as rpck_exchange:
        rpck_payload_bytes = rpck_exchange.payload_nbytes
        rpck_descriptors = list(rpck_exchange.descriptors)
        rpck_attach_s = _time_best(
            lambda: [attach_shard(d) for d in rpck_descriptors], repeats
        )

    if select_transport(TRANSPORT_SHM) == TRANSPORT_SHM:
        with publish_shards(col_shards, transport=TRANSPORT_SHM) as shm_exchange:
            # With shm the pool pipe carries only the pickled
            # descriptors (two segment names each); the column bytes
            # are parked in segments and never re-copied per worker.
            shm_descriptor_bytes = sum(
                len(pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL))
                for d in shm_exchange.descriptors
            )
            shm_segment_bytes = shm_exchange.segment_nbytes
            shm_descriptors = list(shm_exchange.descriptors)
            shm_attach_s = _time_best(
                lambda: [attach_shard(d) for d in shm_descriptors], repeats
            )
    else:  # win32: shm requests resolve to rpck; report that honestly
        shm_descriptor_bytes = rpck_payload_bytes
        shm_segment_bytes = 0
        shm_attach_s = rpck_attach_s
    rss_after = _peak_rss_kb()

    n_shards = len(col_shards)
    selected = select_transport(None)
    pipe_payload_bytes = (
        shm_descriptor_bytes if selected == TRANSPORT_SHM else rpck_payload_bytes
    )
    results["shard_exchange"] = {
        "transport": selected,
        "pipe_payload_bytes": pipe_payload_bytes,
        "seconds": round(shm_attach_s, 6),
        "ops_per_sec": (
            round(n_shards / shm_attach_s, 4) if shm_attach_s > 0 else float("inf")
        ),
        "rows_per_sec": (
            round(n_rows / shm_attach_s, 1) if shm_attach_s > 0 else float("inf")
        ),
        "n_shards": n_shards,
        "pickle_payload_bytes": pickle_payload_bytes,
        "rpck_payload_bytes": rpck_payload_bytes,
        "shm_descriptor_bytes": shm_descriptor_bytes,
        "shm_segment_bytes": shm_segment_bytes,
        "pickle_attach_ms_per_shard": round(pickle_attach_s * 1000.0 / n_shards, 3),
        "rpck_attach_ms_per_shard": round(rpck_attach_s * 1000.0 / n_shards, 3),
        "shm_attach_ms_per_shard": round(shm_attach_s * 1000.0 / n_shards, 3),
        "peak_rss_kb": rss_after,
        "rss_delta_kb": rss_after - rss_before,
    }
    print(
        f"  {'shard_exchange':<24} {shm_attach_s:8.4f}s  "
        f"(pickle {pickle_payload_bytes:,}B / rpck {rpck_payload_bytes:,}B / "
        f"shm pipe {shm_descriptor_bytes:,}B; attach "
        f"{results['shard_exchange']['pickle_attach_ms_per_shard']:.2f}/"
        f"{results['shard_exchange']['rpck_attach_ms_per_shard']:.2f}/"
        f"{results['shard_exchange']['shm_attach_ms_per_shard']:.2f} ms/shard)"
    )

    # The durable trio is timed *interleaved* rather than through the
    # best-of-N loop above: the overhead gates read ratios of these
    # timings, and independent best-of-N measurements taken minutes
    # apart pick up machine drift as fake overhead (or fake speedup).
    # Alternating checkpointed/baseline/out-of-core runs and gating on
    # the *minimum* per-pair ratio means a single noisy iteration cannot
    # trip a ceiling — only a consistently slower path can.
    pair_repeats = max(repeats, 3)
    ckpt_times: list = []
    base_times: list = []
    ooc_times: list = []
    rss_before = _peak_rss_kb()
    for _ in range(pair_repeats):
        start = time.perf_counter()
        durable_checkpointed()
        ckpt_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        durable_baseline()
        base_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        durable_out_of_core()
        ooc_times.append(time.perf_counter() - start)
    rss_after = _peak_rss_kb()
    for name, times in (
        ("durable_checkpointed", ckpt_times),
        ("durable_baseline", base_times),
        ("pipeline_out_of_core", ooc_times),
    ):
        seconds = min(times)
        results[name] = {
            "seconds": round(seconds, 6),
            "ops_per_sec": round(1.0 / seconds, 4) if seconds > 0 else float("inf"),
            "rows_per_sec": (
                round(n_rows / seconds, 1) if seconds > 0 else float("inf")
            ),
            "peak_rss_kb": rss_after,
            # The pair is interleaved in one window; the delta is the
            # window's growth, reported once and mirrored here.
            "rss_delta_kb": rss_after - rss_before,
        }
        print(
            f"  {name:<24} {seconds:8.4f}s  "
            f"({results[name]['ops_per_sec']:.2f} ops/s, "
            f"{results[name]['rows_per_sec']:,.0f} rows/s, "
            f"rss +{results[name]['rss_delta_kb']} KiB)"
        )
    results["durable_checkpointed"]["overhead_vs_baseline"] = round(
        min(c / b for c, b in zip(ckpt_times, base_times)), 3
    )
    results["pipeline_out_of_core"]["overhead_vs_baseline"] = round(
        min(o / b for o, b in zip(ooc_times, base_times)), 3
    )

    # Live-daemon benches: stream the dataset as micro-batches through
    # the socket API (lenient parse, WAL append, incremental fold, ack),
    # then time point queries against the warm catalog.  Each timed
    # ingest pass gets a virgin daemon and WAL directory — batch ids are
    # deduped durably, so re-sending into a warm daemon would time the
    # no-op path.  Startup/replay sits outside the timed window.
    batches = _service_batches(dataset)
    ingest_times: List[float] = []
    live: Optional[_LiveDaemon] = None
    rss_before = _peak_rss_kb()
    for pass_idx in range(repeats):
        if live is not None:
            live.stop()
            shutil.rmtree(ckpt_parent / f"svc_{pass_idx - 1:03d}", ignore_errors=True)
        live = _LiveDaemon(eco, ckpt_parent / f"svc_{pass_idx:03d}")
        start = time.perf_counter()
        for batch_id, rows in batches:
            response = live.client.ingest(batch_id, rows)
            if response.get("status") != "ok":
                raise RuntimeError(f"ingest of {batch_id} failed: {response}")
        ingest_times.append(time.perf_counter() - start)
    assert live is not None
    seconds = min(ingest_times)
    rss_after = _peak_rss_kb()
    results["service_ingest"] = {
        "seconds": round(seconds, 6),
        "ops_per_sec": round(len(batches) / seconds, 4),
        "rows_per_sec": round(n_rows / seconds, 1),
        "n_batches": len(batches),
        "peak_rss_kb": rss_after,
        "rss_delta_kb": rss_after - rss_before,
    }
    print(
        f"  {'service_ingest':<24} {seconds:8.4f}s  "
        f"({results['service_ingest']['ops_per_sec']:.2f} batches/s, "
        f"{results['service_ingest']['rows_per_sec']:,.0f} rows/s, "
        f"rss +{results['service_ingest']['rss_delta_kb']} KiB)"
    )

    device_ids = sorted({event.device_id for event in dataset.radio_events})
    live.client.query_device(device_ids[0])  # untimed: pays the cache refresh
    rss_before = _peak_rss_kb()
    latencies: List[float] = []
    for i in range(SERVICE_QUERY_SAMPLES):
        device_id = device_ids[i % len(device_ids)]
        start = time.perf_counter()
        response = live.client.query_device(device_id)
        latencies.append(time.perf_counter() - start)
        if response.get("status") != "ok":
            raise RuntimeError(f"query of {device_id} failed: {response}")
    live.stop()
    latencies.sort()
    total = sum(latencies)
    rss_after = _peak_rss_kb()
    results["service_query_p99"] = {
        "seconds": round(total, 6),
        "ops_per_sec": round(len(latencies) / total, 4) if total > 0 else float("inf"),
        "rows_per_sec": (
            round(len(latencies) / total, 1) if total > 0 else float("inf")
        ),
        "p50_ms": round(latencies[len(latencies) // 2] * 1000.0, 3),
        "p99_ms": round(
            latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] * 1000.0, 3
        ),
        "peak_rss_kb": rss_after,
        "rss_delta_kb": rss_after - rss_before,
    }
    print(
        f"  {'service_query_p99':<24} {total:8.4f}s  "
        f"({results['service_query_p99']['ops_per_sec']:.2f} queries/s, "
        f"p50 {results['service_query_p99']['p50_ms']:.2f}ms, "
        f"p99 {results['service_query_p99']['p99_ms']:.2f}ms)"
    )

    shutil.rmtree(ckpt_parent, ignore_errors=True)
    return results


def derive_ratios(benches: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Speedup ratios the acceptance criteria read off the report."""
    serial = benches["pipeline_workers_1"]["seconds"]
    ratios = {
        f"speedup_workers_{w}": round(
            serial / benches[f"pipeline_workers_{w}"]["seconds"], 3
        )
        for w in WORKER_SWEEP
        if w != 1
    }
    # labeling_cached times FAST_BENCH_BATCH passes; normalize to one.
    ratios["labeling_cache_speedup"] = round(
        benches["labeling_uncached"]["seconds"]
        / (benches["labeling_cached"]["seconds"] / FAST_BENCH_BATCH),
        3,
    )
    # Incremental acceptance ratio, against the full catalog build.
    ratios["incremental_day_speedup"] = round(
        benches["catalog_columnar"]["seconds"]
        / benches["catalog_incremental_day"]["seconds"],
        3,
    )
    # Exchange acceptance: bytes the legacy pickled-row payload would
    # ship across the pool pipe vs what the selected transport actually
    # ships (shm: only the tiny descriptors; rpck fallback: the framed
    # column blocks, which at small scale barely beat pickle because
    # each self-contained block replicates the string pools).  The
    # floor is asserted where the perf job runs — a POSIX multi-core
    # runner, where shm is the selected transport.
    ratios["shard_payload_reduction"] = round(
        benches["shard_exchange"]["pickle_payload_bytes"]
        / max(benches["shard_exchange"]["pipe_payload_bytes"], 1),
        3,
    )
    # Worker-side deserialization: unpickling row dataclasses vs
    # attaching the selected transport's column buffers.  Recorded for
    # the trajectory, not gated — it is a timing, and the payload gate
    # above already pins the mechanism.
    ratios["shard_attach_speedup"] = round(
        benches["shard_exchange"]["pickle_attach_ms_per_shard"]
        / max(benches["shard_exchange"]["shm_attach_ms_per_shard"], 1e-6),
        3,
    )
    # Durability acceptance: persistence cost relative to the identical
    # un-persisted unit-sharded run (1.0 = free, ceiling 1.10).  Taken
    # from the interleaved paired measurement when available — the
    # quotient of two independently-timed benches is too drift-sensitive
    # to gate on.
    ratios["checkpoint_overhead"] = benches["durable_checkpointed"].get(
        "overhead_vs_baseline",
        round(
            benches["durable_checkpointed"]["seconds"]
            / benches["durable_baseline"]["seconds"],
            3,
        ),
    )
    # Out-of-core acceptance: the spill-everything run (per-unit write +
    # fsync, mmap-windowed replay) relative to the identical in-memory
    # execution (1.0 = free, ceiling 1.25).  Same interleaved-pair
    # sourcing as checkpoint_overhead.
    ratios["out_of_core_overhead"] = benches["pipeline_out_of_core"].get(
        "overhead_vs_baseline",
        round(
            benches["pipeline_out_of_core"]["seconds"]
            / benches["durable_baseline"]["seconds"],
            3,
        ),
    )
    return ratios


def run_scale_sweep(points: List[int], seed: int) -> Dict[str, Any]:
    """Run the out-of-core pipeline at each device count, in children.

    Each point gets its own subprocess so its ``ru_maxrss`` is a clean
    watermark for that scale alone — in-process, the monotone watermark
    of an earlier (larger) point would mask a smaller one.
    """
    entries: List[Dict[str, Any]] = []
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for devices in points:
        proc = subprocess.run(
            [sys.executable, "-c", _SCALE_CHILD, str(devices), str(seed)],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"scale child for {devices} devices failed "
                f"(exit {proc.returncode}):\n{proc.stderr}"
            )
        entry = json.loads(proc.stdout.splitlines()[-1])
        entry["rows_per_sec"] = (
            round(entry["rows"] / entry["seconds"], 1)
            if entry["seconds"] > 0
            else float("inf")
        )
        entries.append(entry)
        print(
            f"  scale {devices:>9,}  {entry['seconds']:8.2f}s  "
            f"{entry['rows_per_sec']:>12,.0f} rows/s  "
            f"peak RSS {entry['peak_rss_kb']:,} KiB"
        )
    return {"points": entries, "rss_ceiling_per_10x": SCALE_RSS_CEILING}


def check_scale_rss(scale: Dict[str, Any]) -> int:
    """Gate peak-RSS growth across every exact 10x device step.

    Pairs whose device counts are not an exact 10x apart carry no
    contract (the ceiling is defined per decade); a sweep with no 10x
    pair at all prints a loud note instead of silently passing.
    """
    points = sorted(scale["points"], key=lambda entry: entry["devices"])
    failures = 0
    gated = False
    for small in points:
        for large in points:
            if large["devices"] != 10 * small["devices"]:
                continue
            gated = True
            ratio = large["peak_rss_kb"] / max(small["peak_rss_kb"], 1)
            status = "ok"
            if ratio >= SCALE_RSS_CEILING:
                status = "ABOVE CEILING"
                failures += 1
            print(
                f"  rss_growth {small['devices']:,} -> {large['devices']:,}: "
                f"{ratio:.2f}x (ceiling {SCALE_RSS_CEILING}x)  {status}"
            )
    if not gated:
        print(
            "  NOTE: no exact 10x device pair in the sweep — the "
            "sublinear-RSS gate did not run; include one (e.g. 300,3000)."
        )
    return failures


def check_speedup_floors(
    derived: Dict[str, float], floors: Optional[Dict[str, float]] = None
) -> int:
    """Count derived ratios below their hard acceptance floor."""
    failures = 0
    if floors is None:
        floors = SPEEDUP_FLOORS
    for name, floor in sorted(floors.items()):
        value = derived.get(name)
        if value is None:
            print(f"  MISSING {name}: floor {floor}x, ratio not derived")
            failures += 1
            continue
        status = "ok"
        if value < floor:
            status = "BELOW FLOOR"
            failures += 1
        print(f"  {name:<24} {value:8.3f}x (floor {floor}x)  {status}")
    return failures


def check_worker_speedup_floors(
    derived: Dict[str, float], cpu_count: Optional[int]
) -> int:
    """Worker-sweep floors, enforced only on a multi-core runner.

    On fewer than :data:`MIN_CORES_FOR_WORKER_GATES` cores the sweep
    measures scheduler contention, not the exchange; every gate is
    skipped with a visible warning instead of silently passing or
    spuriously failing.
    """
    if cpu_count is None or cpu_count < MIN_CORES_FOR_WORKER_GATES:
        for name, floor in sorted(WORKER_SPEEDUP_FLOORS.items()):
            print(
                f"  SKIPPED {name}: floor {floor}x NOT enforced — "
                f"cpu_count={cpu_count} < {MIN_CORES_FOR_WORKER_GATES}. "
                "Worker-sweep gates need a multi-core runner; run the CI "
                "perf job on >= 4 cores (see docs/PERFORMANCE.md)."
            )
        return 0
    return check_speedup_floors(derived, WORKER_SPEEDUP_FLOORS)


def check_overhead_ceilings(
    derived: Dict[str, float], ceilings: Optional[Dict[str, float]] = None
) -> int:
    """Count derived overhead ratios above their hard ceiling."""
    failures = 0
    if ceilings is None:
        ceilings = OVERHEAD_CEILINGS
    for name, ceiling in sorted(ceilings.items()):
        value = derived.get(name)
        if value is None:
            print(f"  MISSING {name}: ceiling {ceiling}x, ratio not derived")
            failures += 1
            continue
        status = "ok"
        if value > ceiling:
            status = "ABOVE CEILING"
            failures += 1
        print(f"  {name:<24} {value:8.3f}x (ceiling {ceiling}x)  {status}")
    return failures


def check_latency_slos(benches: Dict[str, Dict[str, float]]) -> int:
    """Count service benches whose p99 latency exceeds its SLO ceiling."""
    failures = 0
    for name, ceiling_ms in sorted(LATENCY_SLOS.items()):
        value = benches.get(name, {}).get("p99_ms")
        if value is None:
            print(f"  MISSING {name}: SLO {ceiling_ms}ms, p99 not measured")
            failures += 1
            continue
        status = "ok"
        if value > ceiling_ms:
            status = "ABOVE SLO"
            failures += 1
        print(f"  {name:<24} {value:8.3f}ms p99 (SLO {ceiling_ms}ms)  {status}")
    return failures


def check_against_baseline(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    tolerance: float,
) -> int:
    """Count benches slower than ``baseline * (1 - tolerance)``."""
    regressions = 0
    for name, entry in sorted(baseline.items()):
        now = current.get(name)
        if now is None:
            print(f"  MISSING {name}: present in baseline, not measured")
            regressions += 1
            continue
        floor = entry["ops_per_sec"] * (1.0 - tolerance)
        status = "ok"
        if now["ops_per_sec"] < floor:
            status = "REGRESSION"
            regressions += 1
        print(
            f"  {name:<22} {now['ops_per_sec']:10.2f} ops/s "
            f"vs baseline {entry['ops_per_sec']:10.2f} "
            f"(floor {floor:10.2f})  {status}"
        )
    return regressions


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=1000, help="bench population")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--out", type=str, default="BENCH_pipeline.json")
    parser.add_argument(
        "--baseline", type=str, default=None, help="baseline JSON to compare against"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20, help="allowed ops/sec drop fraction"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any bench regresses past the tolerance",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small population + the smoke baseline (CI-sized run)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="overwrite the selected baseline file with this run",
    )
    parser.add_argument(
        "--scale",
        type=str,
        default=None,
        help=(
            "comma-separated device counts for the out-of-core RSS sweep "
            f"(e.g. {','.join(str(p) for p in DEFAULT_SCALE_POINTS)})"
        ),
    )
    parser.add_argument(
        "--scale-only",
        action="store_true",
        help="run only the --scale sweep (default points if --scale absent)",
    )
    args = parser.parse_args(argv)

    devices = 300 if args.smoke else args.devices
    repeats = 2 if args.smoke else args.repeats
    baseline_path = Path(
        args.baseline
        if args.baseline
        else (SMOKE_BASELINE if args.smoke else DEFAULT_BASELINE)
    )
    scale_points: Optional[List[int]] = None
    if args.scale is not None:
        scale_points = [int(part) for part in args.scale.split(",") if part.strip()]
    elif args.scale_only:
        scale_points = list(DEFAULT_SCALE_POINTS)

    meta = {
        "devices": devices,
        "seed": args.seed,
        "repeats": repeats,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }

    if args.scale_only:
        print(f"scale sweep {scale_points} devices (out-of-core) ...")
        scale = run_scale_sweep(scale_points or [], args.seed)
        report: Dict[str, Any] = {"meta": meta, "scale": scale}
        out_path = Path(args.out)
        atomic_write_text(out_path, json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
        if args.check:
            print("checking scale-sweep RSS growth")
            if check_scale_rss(scale):
                print("scale sweep regressed")
                return 1
            print("no regressions")
        return 0

    print(f"benching {devices} devices (repeats={repeats}) ...")
    benches = run_benches(devices, args.seed, repeats)
    report = {
        "meta": meta,
        "benches": benches,
        "derived": derive_ratios(benches),
    }
    if scale_points:
        print(f"scale sweep {scale_points} devices (out-of-core) ...")
        report["scale"] = run_scale_sweep(scale_points, args.seed)
    out_path = Path(args.out)
    atomic_write_text(out_path, json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for name, value in report["derived"].items():
        print(f"  {name}: {value}x")

    if args.write_baseline:
        atomic_write_text(baseline_path, json.dumps(report, indent=2) + "\n")
        print(f"wrote baseline {baseline_path}")
        return 0

    if args.check:
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; run --write-baseline first")
            return 2
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        print(f"checking against {baseline_path} (tolerance {args.tolerance:.0%})")
        regressions = check_against_baseline(
            benches, baseline["benches"], args.tolerance
        )
        print("checking speedup floors")
        regressions += check_speedup_floors(report["derived"])
        print("checking worker-sweep speedup floors")
        regressions += check_worker_speedup_floors(
            report["derived"], report["meta"]["cpu_count"]
        )
        print("checking overhead ceilings")
        regressions += check_overhead_ceilings(
            report["derived"],
            SMOKE_OVERHEAD_CEILINGS if args.smoke else OVERHEAD_CEILINGS,
        )
        print("checking latency SLOs")
        regressions += check_latency_slos(benches)
        if "scale" in report:
            print("checking scale-sweep RSS growth")
            regressions += check_scale_rss(report["scale"])
        if regressions:
            print(f"{regressions} bench(es) regressed")
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
