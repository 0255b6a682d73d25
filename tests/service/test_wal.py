"""BatchLog: durable append, ordered replay, torn-unit quarantine."""

import pytest

from repro.columnar import from_record_streams
from repro.runtime.checkpoint import UNITS_DIRNAME, StaleManifestError
from repro.service import BatchLog
from repro.service.protocol import parse_batch_rows

from tests.service.test_protocol import GOOD_RADIO, GOOD_SERVICE


def typed_rows(n_radio=2, n_service=1, day_offset=0):
    rows = []
    for i in range(n_radio):
        rows.append(dict(GOOD_RADIO, ts=10.0 + i + day_offset * 86400.0))
    for i in range(n_service):
        rows.append(dict(GOOD_SERVICE, ts=11.0 + i + day_offset * 86400.0))
    events, records, report = parse_batch_rows(rows)
    assert report.n_quarantined == 0
    return events, records


def append(log, batch_id, events, records):
    """Append rows the way the daemon does: interned once, fresh pools."""
    return log.append(batch_id, *from_record_streams(events, records))


def test_append_then_replay_round_trips(tmp_path):
    log = BatchLog(tmp_path)
    events_a, records_a = typed_rows(day_offset=0)
    events_b, records_b = typed_rows(day_offset=1)
    assert append(log, "b-0", events_a, records_a) == 0
    assert append(log, "b-1", events_b, records_b) == 1
    assert log.applied_batch_ids == {"b-0", "b-1"}
    log.sync()
    log.close()

    resumed = BatchLog(tmp_path, resume=True)
    batches = resumed.replay()
    assert [(b.seq, b.batch_id) for b in batches] == [(0, "b-0"), (1, "b-1")]
    # Replay hands back columnar stores; row materialization is the
    # caller's opt-in, and round-trips exactly.
    assert batches[0].radio_events.to_rows() == events_a
    assert batches[0].service_records.to_rows() == records_a
    assert batches[1].radio_events.to_rows() == events_b
    assert resumed.applied_batch_ids == {"b-0", "b-1"}
    # New appends continue the sequence, they never reuse a slot.
    events_c, records_c = typed_rows(day_offset=2)
    assert append(resumed, "b-2", events_c, records_c) == 2
    resumed.close()


def test_fresh_directory_has_nothing_to_replay(tmp_path):
    log = BatchLog(tmp_path)
    assert log.replay() == []
    assert log.next_seq == 0
    assert log.n_torn_units == 0
    log.close()


def test_torn_unit_is_counted_and_skipped(tmp_path):
    log = BatchLog(tmp_path)
    for seq in range(3):
        events, records = typed_rows(day_offset=seq)
        append(log, f"b-{seq}", events, records)
    log.sync()
    log.close()

    # Corrupt the middle batch's persisted block (media failure after
    # publication — the rename discipline cannot prevent this one).
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    data = unit.read_bytes()
    unit.write_bytes(data[: len(data) // 2])

    resumed = BatchLog(tmp_path, resume=True)
    batches = resumed.replay()
    assert [b.batch_id for b in batches] == ["b-0", "b-2"]
    assert resumed.n_torn_units == 1
    # The torn batch id is absent: a re-send re-applies it, never dupes.
    assert resumed.applied_batch_ids == {"b-0", "b-2"}
    resumed.close()


def test_wal_directory_is_role_pinned(tmp_path):
    """A batch run's checkpoint directory must not open as a WAL."""
    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path, {"role": "batch-run"}, n_shards=2)
    store.close()
    with pytest.raises(StaleManifestError):
        BatchLog(tmp_path, resume=True)


def test_manifest_summary_counters(tmp_path):
    log = BatchLog(tmp_path)
    events, records = typed_rows()
    append(log, "b-0", events, records)
    summary = log.manifest_summary()
    assert summary["next_seq"] == 1
    assert summary["n_torn_units"] == 0
    assert summary["n_torn_journal_lines"] == 0
    log.close()
