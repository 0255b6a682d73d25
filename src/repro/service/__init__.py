"""Long-lived catalog service: ingest micro-batches, serve point queries.

The batch pipeline (:mod:`repro.pipeline`, :mod:`repro.runtime`) answers
"what did the whole window look like"; this package answers the
operational twin: a daemon that *stays up*, folds event micro-batches
into the incremental catalog (:meth:`repro.core.catalog.CatalogBuilder.
update`) as they arrive, and serves point queries about any device while
ingest continues.

The robustness contract, end to end:

* **Bounded memory** — ingest flows through a watermarked queue
  (:class:`BoundedIngestQueue`); past the high watermark the daemon
  sheds load with a typed :class:`OverloadShed` carrying retry guidance
  instead of buffering without bound.
* **No lost acknowledged batch** — a batch is acknowledged only after
  its rows are journaled in a write-ahead log built on
  :class:`repro.runtime.checkpoint.CheckpointStore`; a SIGKILL at any
  instant loses at most *unacknowledged* batches, which clients replay
  (idempotently, keyed by batch id).
* **No orphaned coroutines** — every background task runs under
  :class:`TaskSupervisor`, which retains the task, restarts crashes
  under a :class:`repro.faults.RetryPolicy` and fails loudly (readiness
  drops) once restarts are exhausted.
* **Observable health** — :class:`ServiceHealth` records the daemon's
  queue-saturation, shed, restart, snapshot and storage incidents in
  the batch runtime's :class:`repro.parallel.health.RunHealth`, served
  over ``healthz``/``readyz`` ops.

Start one with ``python -m repro serve`` or programmatically via
:class:`CatalogDaemon`; talk to it with :class:`CatalogClient`.
"""

from repro.service.config import ServiceConfig
from repro.service.client import CatalogClient, ServiceUnavailable
from repro.service.daemon import CatalogDaemon, catalog_digest
from repro.service.health import ServiceHealth
from repro.service.protocol import parse_batch_rows
from repro.service.queue import BoundedIngestQueue, OverloadShed
from repro.service.supervisor import TaskSupervisor
from repro.service.wal import BatchLog, ReplayedBatch

__all__ = [
    "BatchLog",
    "BoundedIngestQueue",
    "CatalogClient",
    "CatalogDaemon",
    "OverloadShed",
    "ReplayedBatch",
    "ServiceConfig",
    "ServiceHealth",
    "ServiceUnavailable",
    "TaskSupervisor",
    "catalog_digest",
    "parse_batch_rows",
]
