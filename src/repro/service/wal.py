"""The daemon's write-ahead batch log, built on CheckpointStore.

"No lost acknowledged batch" reduces to a classic WAL discipline: a
batch's interned columns are packed into the program's CRC-framed block
format (:func:`repro.columnar.blocks.pack_columns`), written
atomically, unchanged, as checkpoint unit ``(seq, 0)``, and journaled
under its batch id, which the journal line's CRC covers — and only
then is the client's ack released.  On restart :meth:`BatchLog.replay`
walks the journal in sequence order and re-yields every acknowledged
batch, so the daemon rebuilds exactly the catalog it acknowledged, no
matter where a SIGKILL landed:

* kill before the journal flush → the batch was never acked; the client
  re-sends it (batch ids make the re-send idempotent);
* kill after → the batch replays from the WAL.

A torn journal tail (a line of another shape included) or a corrupt
unit block (one that lists quarantined devices included: the WAL never
writes one) is *reported* (``n_torn_units``,
``CheckpointStore.n_torn_journal_lines``) and skipped, never silently
absorbed: a crash tears only batches whose acks never went out, which
their clients re-send, and the operator gets a ``torn-checkpoint``
incident, not a mystery.  A batch id whose bytes rotted fails its
line's CRC, so no batch ever replays under another id.  Every unit is
a plain block, so the scrubber (:mod:`repro.runtime.scrub`) checks it
from its own bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Set, Union

from repro.columnar.blocks import CheckpointCorruption, pack_columns, unpack_day_block
from repro.columnar.store import ColumnarRadioEvents, ColumnarServiceRecords
from repro.runtime.checkpoint import BeforeReplace, CheckpointStore

PathLike = Union[str, Path]

#: WAL units are single-shard: unit key is (seq, _WAL_SHARD).
_WAL_SHARD = 0

#: The store fingerprint pins the directory to this role and format, so
#: pointing the daemon at a batch run's checkpoint directory (or vice
#: versa), or at a WAL of another unit format, fails loudly as a stale
#: manifest instead of mis-decoding.  Format 2 keeps batch ids in the
#: journal; format 1 kept them in an unchecksummed prefix of each unit.
_WAL_FINGERPRINT = {"role": "service-wal", "format": 2}


@dataclass(frozen=True)
class ReplayedBatch:
    """One acknowledged batch recovered from the WAL.

    The batch stays dictionary-encoded: ``radio_events`` /
    ``service_records`` are the unit's decoded columnar stores (shared
    per-batch pools), which the daemon folds into the catalog exactly
    as it folds a live batch — :meth:`CatalogBuilder.update` takes
    column stores, so replay never materializes row dataclasses.  Call
    ``.to_rows()`` on either store if rows are genuinely needed.
    """

    seq: int
    batch_id: str
    radio_events: ColumnarRadioEvents
    service_records: ColumnarServiceRecords


class BatchLog:
    """Durable, replayable log of acknowledged ingest batches.

    One :class:`CheckpointStore` unit per batch, keyed ``(seq, 0)``,
    and one journal line naming its batch id.  ``append`` journals with
    a flush (survives SIGKILL of the daemon); ``sync`` fsyncs (survives
    power loss) and is the snapshot loop's periodic duty.  ``applied_batch_ids`` carries every batch id ever
    acknowledged, giving the daemon idempotent re-sends for free.
    """

    def __init__(
        self,
        directory: PathLike,
        resume: bool = False,
        before_replace: BeforeReplace = None,
    ) -> None:
        self._store = CheckpointStore(
            directory,
            fingerprint=dict(_WAL_FINGERPRINT),
            n_shards=1,
            resume=resume,
            before_replace=before_replace,
        )
        self.applied_batch_ids: Set[str] = set()
        self.next_seq = 0
        self.n_torn_units = 0
        for entry in self._store.journal_entries():
            self.next_seq = max(self.next_seq, entry["day"] + 1)

    @property
    def n_torn_journal_lines(self) -> int:
        return self._store.n_torn_journal_lines

    def append(
        self,
        batch_id: str,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> int:
        """Persist one batch's interned columns durably; returns its
        sequence number.

        The stores must own their pools (as
        :func:`~repro.service.protocol.parse_batch_rows` leaves them):
        the block is byte-identical to
        :func:`~repro.columnar.blocks.pack_day_block` of the same rows.
        Blocking (file I/O): the daemon calls this via a worker thread,
        never directly on the event loop.
        """
        seq = self.next_seq
        block = pack_columns(radio_events, service_records)
        self._store.save_unit(seq, _WAL_SHARD, block)
        self._store.mark_complete(seq, _WAL_SHARD, batch_id)
        self.applied_batch_ids.add(batch_id)
        self.next_seq = seq + 1
        return seq

    def replay(self) -> List[ReplayedBatch]:
        """Recover every acknowledged batch, in sequence order.

        Corrupt or missing unit blocks, and journal lines that name no
        batch, are counted in ``n_torn_units`` and skipped, never
        replayed under an invented id.
        """
        batches: List[ReplayedBatch] = []
        seen: Set[int] = set()
        for entry in self._store.journal_entries():
            seq = entry["day"]
            if seq in seen:
                continue
            seen.add(seq)
            batch_id = entry.get("batch_id")
            try:
                events_c, records_c = unpack_day_block(
                    self._store.load_unit(seq, _WAL_SHARD)
                )
            except CheckpointCorruption:
                batch_id = None
            if batch_id is None:
                self.n_torn_units += 1
                continue
            batches.append(
                ReplayedBatch(
                    seq=seq,
                    batch_id=batch_id,
                    radio_events=events_c,
                    service_records=records_c,
                )
            )
            self.applied_batch_ids.add(batch_id)
        batches.sort(key=lambda b: b.seq)
        return batches

    def sync(self) -> None:
        """fsync the journal (the periodic snapshot cycle's durable step)."""
        self._store.sync()

    def close(self) -> None:
        self._store.close()
