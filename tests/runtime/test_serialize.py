"""Checkpoint block framing: round trips are exact, corruption is loud."""

import json
import struct
import zlib
from array import array

import pytest

from repro.columnar.blocks import (
    BLOCK_VERSION,
    MAGIC,
    RADIO_COLUMNS,
    SERVICE_COLUMNS,
    CheckpointCorruption,
    build_block,
    pack_day_block,
    read_block,
    unpack_day_block,
)


def _day_zero_rows(dataset):
    radio = [e for e in dataset.radio_events if e.timestamp < 86400.0]
    service = [r for r in dataset.service_records if r.timestamp < 86400.0]
    return radio, service


def test_round_trip_preserves_rows(small_dataset):
    radio, service = _day_zero_rows(small_dataset)
    blob = pack_day_block(radio, service)
    assert read_block(blob)[0]["quarantine"] == []
    events_c, records_c = unpack_day_block(blob)
    assert events_c.to_rows() == radio
    assert records_c.to_rows() == service


#: What a per-unit lenient validator wrote in a unit's header: each
#: device it quarantined, whose rows the unit leaves out.
LEGACY_QUARANTINE = [
    ["dev-a", "summary", "ValueError: label I:A is unobservable"],
    ["dev-b", "catalog", "KeyError: 'missing'"],
]


def legacy_unit(block):
    """``block`` framed again, a valid CRC and all, with
    :data:`LEGACY_QUARANTINE` in its header, as the per-unit validator
    wrote units."""
    return reheader(block, setting(LEGACY_QUARANTINE, "quarantine"))


def test_block_that_lists_quarantined_devices_is_corruption(small_dataset):
    """A block whose quarantine lists devices leaves their rows out, so
    its readers must rebuild it rather than fold it."""
    blob = legacy_unit(pack_day_block(*_day_zero_rows(small_dataset)))
    assert read_block(blob)[0]["quarantine"] == LEGACY_QUARANTINE
    with pytest.raises(CheckpointCorruption, match="quarantined"):
        unpack_day_block(blob)


def test_empty_block_round_trips():
    blob = pack_day_block([], [])
    events_c, records_c = unpack_day_block(blob)
    assert events_c.to_rows() == []
    assert records_c.to_rows() == []


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


_SECTIONS = ("radio", "service")


def reframe(block, edit, trailing=b""):
    """``block`` framed again, a valid CRC and all, after ``edit`` changed
    its columns: a dict of ``[name, typecode, bytes]`` lists per section,
    radio and service.  ``trailing`` bytes follow the last column."""
    header, body, offset = read_block(block)
    columns = {}
    for section in _SECTIONS:
        columns[section] = []
        for name, typecode, nbytes in header[section]:
            columns[section].append([name, typecode, body[offset:offset + nbytes]])
            offset += nbytes
    edit(columns)
    chunks = []
    for section in _SECTIONS:
        header[section] = [[name, code, len(data)] for name, code, data in columns[section]]
        chunks.extend(data for _, _, data in columns[section])
    return build_block(header, [*chunks, trailing])


def _column(columns, section, name):
    return next(column for column in columns[section] if column[0] == name)


def drop_tacs(columns):
    columns["radio"].remove(_column(columns, "radio", "tacs"))


def _rename(columns):
    _column(columns, "radio", "tacs")[0] = "tac_codes"


def _retype(typecode):
    def edit(columns):
        _column(columns, "service", "services")[1] = typecode
    return edit


def _swap(columns):
    radio = columns["radio"]
    radio[4], radio[5] = radio[5], radio[4]  # tacs <-> sector_ids, both "q"


def _short(columns):
    tacs = _column(columns, "radio", "tacs")
    tacs[2] = tacs[2][:-8]


def _split_item(columns):
    timestamps, days = columns["radio"][1:3]
    timestamps[2], days[2] = timestamps[2][:-1], timestamps[2][-1:] + days[2]


LAYOUT_DAMAGE = {
    "missing-column": (drop_tacs, b""),
    "renamed-column": (_rename, b""),
    "foreign-typecode": (_retype("x"), b""),
    "other-typecode": (_retype("B"), b""),
    "columns-swapped": (_swap, b""),
    "short-column": (_short, b""),
    "partial-item": (_split_item, b""),
    "trailing-bytes": (lambda columns: None, bytes(8)),
}


def test_reframing_unchanged_columns_gives_the_same_block(small_dataset):
    blob = pack_day_block(*_day_zero_rows(small_dataset))
    assert reframe(blob, lambda columns: None) == blob
    header, _, _ = read_block(blob)
    assert [spec[0] for spec in header["radio"]] == list(RADIO_COLUMNS)
    assert [spec[0] for spec in header["service"]] == list(SERVICE_COLUMNS)


@pytest.mark.parametrize("damage", sorted(LAYOUT_DAMAGE))
def test_block_with_another_column_layout_is_corruption(small_dataset, damage):
    """A CRC-valid block whose columns do not match the stores' schemas
    is refused as corruption, the one error its readers recover from."""
    edit, trailing = LAYOUT_DAMAGE[damage]
    blob = reframe(pack_day_block(*_day_zero_rows(small_dataset)), edit, trailing)
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(blob)


def set_values(section, name, value, rows=slice(None)):
    """An edit that sets ``rows`` of one column to ``value``; the block
    keeps its layout."""

    def edit(columns):
        column = _column(columns, section, name)
        values = array(column[1], column[2])
        if isinstance(rows, slice):
            for index in range(*rows.indices(len(values))):
                values[index] = value
        else:
            values[rows] = value
        column[2] = values.tobytes()

    return edit


#: A CRC-valid block in the stores' layout whose rows no store holds:
#: (edit, the refusal's words).
VALUE_DAMAGE = {
    "device-id-past-its-pool": (set_values("radio", "device_ids", 1_000_000), "device_ids"),
    "null-device-id": (set_values("service", "device_ids", -1, 0), "device_ids"),
    "visited-plmn-past-its-pool": (
        set_values("service", "visited_plmns", 10**6, 0),
        "visited_plmns",
    ),
    "apn-below-null": (set_values("service", "apns", -2, 0), "apns"),
    "event-type-past-its-order": (set_values("radio", "event_types", 99, 0), "event_types"),
    "negative-interface": (set_values("radio", "interfaces", -1, 0), "interfaces"),
    "service-past-its-order": (set_values("service", "services", 2, 0), "services"),
    "radio-day-off-its-timestamp": (set_values("radio", "days", 999_999, 0), "days"),
    "service-day-off-its-timestamp": (set_values("service", "days", -1, -1), "days"),
    "row-the-checks-refuse": (set_values("service", "durations", -5.0, 0), "negative duration"),
}


#: The cases the stores' readers (durable resume, WAL replay, scrub)
#: are held to: an id, an enum code and a day.
READER_DAMAGE = (
    "device-id-past-its-pool",
    "event-type-past-its-order",
    "radio-day-off-its-timestamp",
)


@pytest.mark.parametrize("damage", sorted(VALUE_DAMAGE))
def test_block_whose_rows_do_not_decode_is_corruption(small_dataset, damage):
    """A CRC-valid block in the stores' layout whose rows no store could
    hold is refused as corruption too: an id past its pool would raise
    IndexError at the first row read, and a wrong day would fold rows
    onto another day."""
    edit, words = VALUE_DAMAGE[damage]
    blob = reframe(pack_day_block(*_day_zero_rows(small_dataset)), edit)
    with pytest.raises(CheckpointCorruption, match=words):
        unpack_day_block(blob)


def reheader(block, edit):
    """``block`` framed again through ``build_block``, a valid CRC and
    all, with the same columns under the header ``edit`` returns for its
    JSON header."""
    header, body, offset = read_block(block)
    return build_block(edit(header), [body[offset:]])


def _frame(body):
    return struct.pack("<4sIIQ", MAGIC, BLOCK_VERSION, zlib.crc32(body), len(body)) + body


def framed(header_bytes):
    """A block with a valid frame and CRC whose header is
    ``header_bytes`` as is, which ``build_block`` (JSON, UTF-8) cannot
    write."""
    return _frame(struct.pack("<I", len(header_bytes)) + header_bytes)


def test_framed_frames_as_build_block_does():
    header = {"pools": {"devices": []}, "quarantine": []}
    encoded = json.dumps(header, separators=(",", ":")).encode()
    assert framed(encoded) == build_block(header, [])


def without(*path):
    """An edit that deletes one entry of the header."""

    def edit(header):
        entry = header
        for key in path[:-1]:
            entry = entry[key]
        del entry[path[-1]]
        return header

    return edit


def setting(value, *path):
    """An edit that sets one entry of the header to ``value``."""

    def edit(header):
        entry = header
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        return header

    return edit


def _devices_as_letters(header):
    # One letter per device id: a decoder that iterates a string takes
    # it for a pool of the right size and reads every row.
    devices = header["pools"]["devices"]
    header["pools"]["devices"] = "".join(chr(0x4E00 + i) for i in range(len(devices)))
    return header


def _devices_repeated(header):
    # Ids are positions: with its first string repeated first, id 1
    # names that string again, and a pool that drops repeats would
    # shift every later id onto the next device.
    devices = header["pools"]["devices"]
    devices.insert(0, devices[0])
    return header


#: Header edits the decoder cannot read, each with the error the
#: decoder raised for it before it refused them as corruption.
HEADER_DAMAGE = {
    "no-pools": without("pools"),  # KeyError
    "no-quarantine": without("quarantine"),  # KeyError
    "no-radio-specs": without("radio"),  # KeyError
    "no-service-specs": without("service"),  # KeyError
    "no-devices-pool": without("pools", "devices"),  # KeyError
    "no-plmns-pool": without("pools", "plmns"),  # KeyError
    "no-apns-pool": without("pools", "apns"),  # KeyError
    "pools-a-list": setting([], "pools"),  # TypeError
    "devices-pool-a-number": setting(5, "pools", "devices"),  # TypeError
    "devices-pool-a-string": _devices_as_letters,  # none: decoded wrong
    "devices-pool-repeats-a-string": _devices_repeated,  # none: decoded wrong
    "pool-entry-not-a-string": setting([["x"]], "pools", "apns"),  # TypeError
    "quarantine-a-number": setting(7, "quarantine"),  # TypeError
    "quarantine-entry-of-two": setting([["dev-a", "catalog"]], "quarantine"),  # ValueError
    "header-a-list": lambda header: list(header),  # TypeError
    "header-a-number": lambda header: 7,  # TypeError
    "header-null": lambda header: None,  # TypeError
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_block_whose_header_has_another_shape_is_corruption(small_dataset, damage):
    """A CRC-valid block whose header lacks an entry, or holds one in
    another shape than ``pack_columns`` writes, is refused as corruption,
    the one error its readers recover from."""
    blob = reheader(pack_day_block(*_day_zero_rows(small_dataset)), HEADER_DAMAGE[damage])
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(blob)


#: Header bytes ``read_block`` cannot parse into a JSON object.
UNREADABLE_HEADERS = {
    "not-utf8": b'{"pools":"\xff"}',
    "not-json": b"{pools",
    "json-array": b"[]",
    "json-string": b'"pools"',
    "empty": b"",
}


@pytest.mark.parametrize("damage", sorted(UNREADABLE_HEADERS))
def test_block_whose_header_is_no_json_object_is_corruption(damage):
    blob = framed(UNREADABLE_HEADERS[damage])
    with pytest.raises(CheckpointCorruption):
        read_block(blob)
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(blob)


def test_block_too_short_for_its_header_length_is_corruption():
    # Two of the four bytes of the header length.
    with pytest.raises(CheckpointCorruption):
        unpack_day_block(_frame(b"\x01\x00"))


#: The case the stores' readers (durable resume, WAL replay, scrub) are
#: held to.
READER_HEADER_DAMAGE = "no-pools"
