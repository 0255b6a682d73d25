"""Deterministic sharded execution of the pipeline's hot stages.

The subsystem has four modules:

- :mod:`repro.parallel.sharding` — pure shard-by-device assignment
  (CRC-32 of the device ID, stable across processes and runs);
- :mod:`repro.parallel.pool` — the repository's only process-pool seam
  (:func:`map_shards`), enforced by lint rule ``PERF001``, with
  per-shard deadlines, broken-pool recovery and a circuit breaker;
- :mod:`repro.parallel.health` — the :class:`Incident` record and the
  :class:`RunHealth` report every recovery action is recorded in;
- :mod:`repro.parallel.executor` — the pipeline-specific fan-out and
  the order-normalizing merge that makes sharded output byte-identical
  to a serial :func:`repro.pipeline.run_pipeline` at any worker count.
  Each shard crosses the pool pipe as one self-contained column block
  (:func:`publish_shards`, the one codec in :mod:`repro.columnar.blocks`);
  each worker's day records, summaries and failures come back as one
  tuple in the pool's own pickle.

Callers normally reach this through ``run_pipeline(..., n_workers=N)``
or the CLI's ``--jobs``; the pieces are exported for tests, for the
streaming simulator's per-day sharded generation and for the durable
runtime's ``(day, shard)`` units.
"""

from repro.parallel.executor import publish_shards, run_stages_sharded
from repro.parallel.health import Incident, RunHealth
from repro.parallel.pool import (
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_POOL_RETRY,
    DEFAULT_SHARD_DEADLINE_S,
    get_context,
    map_shards,
)
from repro.parallel.sharding import (
    shard_columnar_records,
    shard_items,
    shard_mno_records,
    shard_of,
)

__all__ = [
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_POOL_RETRY",
    "DEFAULT_SHARD_DEADLINE_S",
    "Incident",
    "RunHealth",
    "get_context",
    "map_shards",
    "publish_shards",
    "run_stages_sharded",
    "shard_columnar_records",
    "shard_items",
    "shard_mno_records",
    "shard_of",
]
