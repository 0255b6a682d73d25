"""The daemon's write-ahead batch log, built on CheckpointStore.

"No lost acknowledged batch" reduces to a classic WAL discipline: a
batch's interned columns are packed into the runtime's CRC-framed block
format (:func:`repro.runtime.serialize.pack_columns`), written
atomically as checkpoint unit ``(seq, 0)``, and journaled — and only
then is the client's ack released.  On restart :meth:`BatchLog.replay`
walks the journal in sequence order and re-yields every acknowledged
batch, so the daemon rebuilds exactly the catalog it acknowledged, no
matter where a SIGKILL landed:

* kill before the journal flush → the batch was never acked; the client
  re-sends it (batch ids make the re-send idempotent);
* kill after → the batch replays from the WAL.

A torn journal tail or a corrupt unit block is *reported*
(``n_torn_units``, ``CheckpointStore.n_torn_journal_lines``) and
skipped, never silently absorbed: the units it named were by definition
unacknowledged, so dropping them is correct — but the operator gets a
``torn-checkpoint`` incident, not a mystery.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple, Union

from repro.columnar.store import ColumnarRadioEvents, ColumnarServiceRecords
from repro.runtime.checkpoint import BeforeReplace, CheckpointStore
from repro.runtime.serialize import (
    CheckpointCorruption,
    pack_columns,
    unpack_day_block,
)

PathLike = Union[str, Path]

_ENVELOPE_LEN = struct.Struct("<I")

#: WAL units are single-shard: unit key is (seq, _WAL_SHARD).
_WAL_SHARD = 0

#: The store fingerprint pins the directory to this role and format, so
#: pointing the daemon at a batch run's checkpoint directory (or vice
#: versa) fails loudly as a stale manifest instead of mis-decoding.
_WAL_FINGERPRINT = {"role": "service-wal", "format": 1}


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


def _encode_envelope(batch_id: str, seq: int, block: bytes) -> bytes:
    header = json.dumps(
        {"batch_id": batch_id, "seq": seq}, separators=(",", ":")
    ).encode("utf-8")
    return _ENVELOPE_LEN.pack(len(header)) + header + block


def _decode_envelope(data: bytes) -> Tuple[Dict[str, Any], bytes]:
    if len(data) < _ENVELOPE_LEN.size:
        raise CheckpointCorruption("WAL envelope too short for header frame")
    (header_len,) = _ENVELOPE_LEN.unpack_from(data)
    offset = _ENVELOPE_LEN.size
    raw = data[offset:offset + header_len]
    if len(raw) != header_len:
        raise CheckpointCorruption("WAL envelope header torn")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorruption(f"WAL envelope header unreadable: {exc}") from exc
    return header, data[offset + header_len:]


class BatchLog:
    """Durable, replayable log of acknowledged ingest batches.

    One :class:`CheckpointStore` unit per batch, keyed ``(seq, 0)``.
    ``append`` journals with a flush (survives SIGKILL of the daemon);
    ``sync`` fsyncs (survives power loss) and is the snapshot loop's
    periodic duty.  ``applied_batch_ids`` carries every batch id ever
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

    @property
    def attempt(self) -> int:
        return self._store.attempt

    def append(
        self,
        batch_id: str,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> int:
        """Persist one batch's interned columns durably; returns its
        sequence number.

        The stores must own their pools (as
        :func:`~repro.columnar.store.from_record_streams` with fresh
        pools leaves them): the block is byte-identical to
        :func:`~repro.runtime.serialize.pack_day_block` of the same rows.
        Blocking (file I/O): the daemon calls this via a worker thread,
        never directly on the event loop.
        """
        seq = self.next_seq
        block = pack_columns(radio_events, service_records)
        self._store.save_unit(seq, _WAL_SHARD, _encode_envelope(batch_id, seq, block))
        self._store.mark_complete(seq, _WAL_SHARD)
        self.applied_batch_ids.add(batch_id)
        self.next_seq = seq + 1
        return seq

    def replay(self) -> List[ReplayedBatch]:
        """Recover every acknowledged batch, in sequence order.

        Corrupt or missing unit blocks are counted in ``n_torn_units``
        and skipped — their acks never made it out (the journal line is
        written strictly after the block), so nothing acknowledged is
        lost.
        """
        batches: List[ReplayedBatch] = []
        seen: Set[int] = set()
        for entry in self._store.journal_entries():
            seq = entry["day"]
            if seq in seen:
                continue
            seen.add(seq)
            try:
                header, block = _decode_envelope(
                    self._store.load_unit(seq, _WAL_SHARD)
                )
                events_c, records_c, _ = unpack_day_block(block)
            except CheckpointCorruption:
                self.n_torn_units += 1
                continue
            batch_id = str(header.get("batch_id", f"seq-{seq}"))
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

    def manifest_summary(self) -> Dict[str, int]:
        """Counters for health reporting."""
        return {
            "next_seq": self.next_seq,
            "n_torn_units": self.n_torn_units,
            "n_torn_journal_lines": self.n_torn_journal_lines,
            "attempt": self.attempt,
        }
