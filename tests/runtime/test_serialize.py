"""Checkpoint block framing: round trips are exact, corruption is loud."""

import pytest

from repro.runtime.serialize import (
    BLOCK_VERSION,
    MAGIC,
    CheckpointCorruption,
    pack_day_block,
    unpack_day_block,
)


def _day_zero_rows(dataset):
    radio = [e for e in dataset.radio_events if e.timestamp < 86400.0]
    service = [r for r in dataset.service_records if r.timestamp < 86400.0]
    return radio, service


def test_round_trip_preserves_rows(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    blob = pack_day_block(radio, service)
    events_c, records_c, quarantine = unpack_day_block(blob)
    assert quarantine == []
    assert list(events_c.iter_rows()) == radio
    assert list(records_c.iter_rows()) == service


def test_round_trip_preserves_quarantine(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    entries = [
        ("dev-a", "summary", "ValueError: label I:A is unobservable"),
        ("dev-b", "catalog", "KeyError: 'missing'"),
    ]
    blob = pack_day_block(radio, service, entries)
    _, _, quarantine = unpack_day_block(blob)
    assert quarantine == entries


def test_empty_block_round_trips():
    blob = pack_day_block([], [])
    events_c, records_c, quarantine = unpack_day_block(blob)
    assert list(events_c.iter_rows()) == []
    assert list(records_c.iter_rows()) == []
    assert quarantine == []


def test_pack_is_deterministic(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    assert pack_day_block(radio, service) == pack_day_block(radio, service)


def test_truncation_detected(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    blob = pack_day_block(radio, service)
    # Cut mid-body, and shorter than the 20-byte frame itself.
    for length in (len(blob) // 2, 11, 3, 0):
        with pytest.raises(CheckpointCorruption):
            unpack_day_block(blob[:length])


def test_single_flipped_byte_detected(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    blob = bytearray(pack_day_block(radio, service))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(bytes(blob))


def test_bad_magic_detected(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    blob = pack_day_block(radio, service)
    assert blob.startswith(MAGIC)
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(b"XXXX" + blob[4:])


def test_unknown_version_detected(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    blob = bytearray(pack_day_block(radio, service))
    assert BLOCK_VERSION == 1
    blob[4] = 99  # version field follows the 4-byte magic
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(bytes(blob))
