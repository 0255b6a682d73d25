"""BatchLog: durable append, ordered replay, torn-unit quarantine."""

import pytest

from repro.columnar import from_record_streams
from repro.columnar.blocks import pack_day_block
from repro.runtime.checkpoint import (
    JOURNAL_NAME,
    UNITS_DIRNAME,
    CheckpointCorruption,
    StaleManifestError,
    read_journal,
)
from repro.runtime.scrub import scrub_store
from repro.service import BatchLog
from repro.service.protocol import parse_batch_rows

from tests.runtime.test_checkpoint import (
    JOURNAL_LINE_DAMAGE,
    MANIFEST_DAMAGE,
    READER_JOURNAL_DAMAGE,
    READER_MANIFEST_DAMAGE,
    append_journal_line,
    reshape_manifest,
)
from tests.runtime.test_serialize import (
    HEADER_DAMAGE,
    READER_DAMAGE,
    READER_HEADER_DAMAGE,
    VALUE_DAMAGE,
    drop_tacs,
    legacy_unit,
    reframe,
    reheader,
)
from tests.service.test_protocol import GOOD_RADIO, GOOD_SERVICE


def typed_rows(n_radio=2, n_service=1, day_offset=0):
    rows = []
    for i in range(n_radio):
        rows.append(dict(GOOD_RADIO, ts=10.0 + i + day_offset * 86400.0))
    for i in range(n_service):
        rows.append(dict(GOOD_SERVICE, ts=11.0 + i + day_offset * 86400.0))
    radio, service, report = parse_batch_rows(rows)
    assert report.n_quarantined == 0
    return radio.to_rows(), service.to_rows()


def append(log, batch_id, events, records):
    """Append rows as the daemon's parser hands them over: interned
    columns that own fresh pools."""
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


def test_unit_is_the_batch_block_and_the_journal_names_the_batch(tmp_path):
    log = BatchLog(tmp_path)
    events, records = typed_rows()
    append(log, "b-0", events, records)
    log.close()
    unit = tmp_path / UNITS_DIRNAME / "day_000.shard_000.ckpt"
    assert unit.read_bytes() == pack_day_block(events, records)
    assert read_journal(tmp_path / JOURNAL_NAME) == (
        [{"day": 0, "shard": 0, "attempt": 0, "batch_id": "b-0"}],
        0,
    )


def test_every_flipped_bit_of_a_unit_is_damage_never_a_batch(tmp_path):
    """Every bit of a one-row unit, flipped alone, fails scrub; one bit
    of every byte, flipped alone, makes replay count the unit torn."""
    log = BatchLog(tmp_path)
    append(log, "b-0", *typed_rows(n_radio=1, n_service=0))
    log.close()
    unit = tmp_path / UNITS_DIRNAME / "day_000.shard_000.ckpt"
    pristine = unit.read_bytes()
    for bit in range(len(pristine) * 8):
        damaged = bytearray(pristine)
        damaged[bit // 8] ^= 1 << (bit % 8)
        unit.write_bytes(bytes(damaged))
        assert [u.day for u in scrub_store(tmp_path).damaged] == [0], bit
        if bit % 8 == (bit // 8) % 8:
            resumed = BatchLog(tmp_path, resume=True)
            assert resumed.replay() == [] and resumed.n_torn_units == 1, bit
            resumed.close()


def test_rotted_batch_id_is_a_torn_line_never_a_renamed_batch(tmp_path):
    log = BatchLog(tmp_path)
    for seq in range(3):
        append(log, f"b-{seq}", *typed_rows(day_offset=seq))
    log.close()
    journal = tmp_path / JOURNAL_NAME
    text = journal.read_text(encoding="utf-8")
    assert text.count('"b-1"') == 1
    journal.write_text(text.replace('"b-1"', '"b-7"'), encoding="utf-8")

    # The line's CRC covers the id: it and the lines after it are torn.
    assert scrub_store(tmp_path).n_torn_journal_lines == 2
    resumed = BatchLog(tmp_path, resume=True)
    assert resumed.n_torn_journal_lines == 2
    assert [b.batch_id for b in resumed.replay()] == ["b-0"]
    assert resumed.applied_batch_ids == {"b-0"}
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


def test_unit_with_another_column_layout_is_counted_torn(tmp_path):
    log = BatchLog(tmp_path)
    for seq in range(3):
        events, records = typed_rows(day_offset=seq)
        append(log, f"b-{seq}", events, records)
    log.sync()
    log.close()

    # A CRC-valid block one column short.
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    unit.write_bytes(reframe(unit.read_bytes(), drop_tacs))

    resumed = BatchLog(tmp_path, resume=True)
    assert [b.batch_id for b in resumed.replay()] == ["b-0", "b-2"]
    assert resumed.n_torn_units == 1
    resumed.close()


@pytest.mark.parametrize("damage", READER_DAMAGE)
def test_unit_whose_rows_do_not_decode_is_counted_torn(tmp_path, damage):
    log = BatchLog(tmp_path)
    for seq in range(3):
        events, records = typed_rows(day_offset=seq)
        append(log, f"b-{seq}", events, records)
    log.sync()
    log.close()

    # A CRC-valid block in the stores' layout.
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    unit.write_bytes(reframe(unit.read_bytes(), VALUE_DAMAGE[damage][0]))

    resumed = BatchLog(tmp_path, resume=True)
    assert [b.batch_id for b in resumed.replay()] == ["b-0", "b-2"]
    assert resumed.n_torn_units == 1
    resumed.close()


def test_unit_whose_header_has_another_shape_is_counted_torn(tmp_path):
    log = BatchLog(tmp_path)
    for seq in range(3):
        events, records = typed_rows(day_offset=seq)
        append(log, f"b-{seq}", events, records)
    log.sync()
    log.close()

    # A CRC-valid block without its pools.
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    unit.write_bytes(reheader(unit.read_bytes(), HEADER_DAMAGE[READER_HEADER_DAMAGE]))

    resumed = BatchLog(tmp_path, resume=True)
    assert [b.batch_id for b in resumed.replay()] == ["b-0", "b-2"]
    assert resumed.n_torn_units == 1
    resumed.close()


def test_unit_that_lists_quarantined_devices_is_counted_torn(tmp_path):
    log = BatchLog(tmp_path)
    for seq in range(3):
        events, records = typed_rows(day_offset=seq)
        append(log, f"b-{seq}", events, records)
    log.sync()
    log.close()

    # The WAL never writes a quarantine list: a block holding one is
    # corrupt.
    unit = tmp_path / UNITS_DIRNAME / "day_001.shard_000.ckpt"
    unit.write_bytes(legacy_unit(unit.read_bytes()))

    resumed = BatchLog(tmp_path, resume=True)
    assert [b.batch_id for b in resumed.replay()] == ["b-0", "b-2"]
    assert resumed.n_torn_units == 1
    resumed.close()


@pytest.mark.parametrize("damage", READER_JOURNAL_DAMAGE)
def test_journal_line_of_another_shape_is_torn_at_start(tmp_path, damage):
    log = BatchLog(tmp_path)
    for seq in range(2):
        events, records = typed_rows(day_offset=seq)
        append(log, f"b-{seq}", events, records)
    log.close()

    append_journal_line(tmp_path, JOURNAL_LINE_DAMAGE[damage])
    resumed = BatchLog(tmp_path, resume=True)
    assert resumed.n_torn_journal_lines == 1
    assert [b.batch_id for b in resumed.replay()] == ["b-0", "b-1"]
    assert resumed.next_seq == 2
    resumed.close()


@pytest.mark.parametrize("damage", READER_MANIFEST_DAMAGE)
def test_manifest_of_another_shape_refuses_to_start(tmp_path, damage):
    BatchLog(tmp_path).close()
    reshape_manifest(tmp_path, MANIFEST_DAMAGE[damage])
    with pytest.raises(CheckpointCorruption, match="n_shards"):
        BatchLog(tmp_path, resume=True)


def test_wal_directory_is_role_pinned(tmp_path):
    """A batch run's checkpoint directory must not open as a WAL."""
    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path, {"role": "batch-run"}, n_shards=2)
    store.close()
    with pytest.raises(StaleManifestError):
        BatchLog(tmp_path, resume=True)


def test_format_1_wal_refuses_to_resume(tmp_path):
    """A WAL of the old unit format (batch ids in a prefix of each unit)
    is refused, not misread."""
    from repro.runtime.checkpoint import CheckpointStore

    CheckpointStore(tmp_path, {"role": "service-wal", "format": 1}, n_shards=1).close()
    with pytest.raises(StaleManifestError, match="format"):
        BatchLog(tmp_path, resume=True)
