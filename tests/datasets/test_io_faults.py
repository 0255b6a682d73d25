"""Every codec × every corruption kind, in both ingest modes.

Strict reads must raise with the file and line number; lenient reads
must quarantine the bad row into the right taxonomy bucket and keep the
clean rows.
"""

import json

import numpy as np
import pytest

from repro.datasets.io import (
    IngestErrorKind,
    ingest_jsonl,
    ingest_radio_events,
    ingest_service_records,
    ingest_transactions,
    radio_event_to_dict,
    read_jsonl,
    service_record_to_dict,
    transaction_to_dict,
    write_jsonl,
)
from repro.faults import (
    CorruptionKind,
    RADIO_EVENT_SCHEMA,
    SERVICE_RECORD_SCHEMA,
    TRANSACTION_SCHEMA,
)
from repro.faults.inject import corrupt_row
from repro.signaling.cdr import ServiceRecord, ServiceType
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode, SignalingTransaction


def sample_transactions():
    return [
        SignalingTransaction(
            device_id=f"dev-{i}",
            timestamp=float(i),
            sim_plmn="21407",
            visited_plmn="23410",
            message_type=MessageType.UPDATE_LOCATION,
            result=ResultCode.OK,
        )
        for i in range(4)
    ]


def sample_radio_events():
    return [
        RadioEvent(
            device_id=f"dev-{i}",
            timestamp=float(i),
            sim_plmn="23410",
            tac=35236081,
            sector_id=3,
            interface=RadioInterface.S1,
            event_type=MessageType.ATTACH,
            result=ResultCode.OK,
        )
        for i in range(4)
    ]


def sample_service_records():
    return [
        ServiceRecord(
            device_id=f"dev-{i}",
            timestamp=float(i),
            sim_plmn="21407",
            visited_plmn="23410",
            service=ServiceType.DATA,
            bytes_total=100,
            apn="iot.example",
        )
        for i in range(4)
    ]


#: codec name -> (records, to_dict, ingest, row schema)
CODECS = {
    "transaction": (
        sample_transactions, transaction_to_dict, ingest_transactions,
        TRANSACTION_SCHEMA,
    ),
    "radio_event": (
        sample_radio_events, radio_event_to_dict, ingest_radio_events,
        RADIO_EVENT_SCHEMA,
    ),
    "service_record": (
        sample_service_records, service_record_to_dict, ingest_service_records,
        SERVICE_RECORD_SCHEMA,
    ),
}

#: Which taxonomy bucket each corruption kind must land in.
EXPECTED_KIND = {
    CorruptionKind.GARBAGE_LINE: IngestErrorKind.PARSE,
    CorruptionKind.MISSING_FIELD: IngestErrorKind.SCHEMA,
    CorruptionKind.BAD_ENUM: IngestErrorKind.SCHEMA,
    CorruptionKind.BAD_PLMN: IngestErrorKind.SEMANTIC,
    CorruptionKind.BAD_TIMESTAMP: IngestErrorKind.SEMANTIC,
}

BAD_LINE_NO = 2  # the corrupted row sits on line 2 of each fixture file


def write_with_corruption(tmp_path, codec, kind):
    """Clean rows with row 2 corrupted; returns the file path."""
    make, to_dict, _, schema = CODECS[codec]
    rows = [to_dict(r) for r in make()]
    damaged = corrupt_row(rows[1], kind, schema, np.random.default_rng(0))
    path = tmp_path / f"{codec}_{kind.value}.jsonl"
    lines = []
    for index, row in enumerate(rows):
        payload = damaged if index == 1 else row
        lines.append(
            payload if isinstance(payload, str)
            else json.dumps(payload, separators=(",", ":"))
        )
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("kind", list(CorruptionKind))
def test_strict_raises_with_location(tmp_path, codec, kind):
    path = write_with_corruption(tmp_path, codec, kind)
    ingest = CODECS[codec][2]
    with pytest.raises((ValueError, KeyError, TypeError)) as excinfo:
        ingest(path)
    assert f"{path}:{BAD_LINE_NO}]" in str(excinfo.value)


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("kind", list(CorruptionKind))
def test_lenient_quarantines_into_the_right_bucket(tmp_path, codec, kind):
    path = write_with_corruption(tmp_path, codec, kind)
    make, _, ingest, _ = CODECS[codec]
    records, report = ingest(path, lenient=True)
    clean = make()
    assert records == [clean[0], *clean[2:]]
    assert report.n_rows == len(clean)
    assert report.n_ok == len(clean) - 1
    assert report.n_quarantined == 1
    assert report.counts_by_kind == {EXPECTED_KIND[kind].value: 1}
    error = report.errors[0]
    assert error.line_no == BAD_LINE_NO
    assert error.path == str(path)
    assert error.excerpt


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_clean_file_round_trips_both_modes(tmp_path, codec):
    make, to_dict, ingest, _ = CODECS[codec]
    records = make()
    path = tmp_path / "clean.jsonl"
    write_jsonl(path, [to_dict(r) for r in records])
    strict_records, strict_report = ingest(path)
    lenient_records, lenient_report = ingest(path, lenient=True)
    assert strict_records == lenient_records == records
    assert strict_report.ok and lenient_report.ok
    assert strict_report.coverage == 1.0


#: A line that is not UTF-8; ``json.loads`` of its bytes would guess UTF-16.
NOT_UTF8 = b"\xff\xfe\x00garbage"

INGESTS = {
    **{codec: (make, to_dict, ingest) for codec, (make, to_dict, ingest, _) in CODECS.items()},
    "jsonl": (sample_transactions, transaction_to_dict, ingest_jsonl),
}


def write_with_non_utf8_line(tmp_path, name):
    make, to_dict, _ = INGESTS[name]
    lines = [json.dumps(to_dict(r)).encode("utf-8") for r in make()]
    lines[1] = NOT_UTF8
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


@pytest.mark.parametrize("name", sorted(INGESTS))
def test_non_utf8_line_quarantines_as_parse(tmp_path, name):
    path = write_with_non_utf8_line(tmp_path, name)
    make, to_dict, ingest = INGESTS[name]
    records, report = ingest(path, lenient=True)
    clean = make() if name != "jsonl" else [to_dict(r) for r in make()]
    assert records == [clean[0], *clean[2:]]
    assert report.counts_by_kind == {"parse": 1}
    error = report.errors[0]
    assert error.line_no == BAD_LINE_NO
    assert error.excerpt == NOT_UTF8.decode("utf-8", "replace")
    assert "utf-8" in error.message


@pytest.mark.parametrize("name", sorted(INGESTS))
def test_non_utf8_line_raises_with_location_when_strict(tmp_path, name):
    path = write_with_non_utf8_line(tmp_path, name)
    with pytest.raises(UnicodeDecodeError) as excinfo:
        INGESTS[name][2](path)
    assert f"{path}:{BAD_LINE_NO}]" in str(excinfo.value)
    with pytest.raises(UnicodeDecodeError, match=f"{path.name}:{BAD_LINE_NO}]"):
        list(read_jsonl(path))


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('{"a":1}\n\n   \n{"a":2}\n\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]
    rows, report = ingest_jsonl(path)
    assert rows == [{"a": 1}, {"a": 2}]
    assert report.n_rows == 2


def test_read_jsonl_decode_error_names_file_and_line(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text('{"a":1}\n{"a": TORN\n{"a":3}\n', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as excinfo:
        list(read_jsonl(path))
    assert f"{path}:2]" in str(excinfo.value)


def test_truncated_tail_quarantines_as_parse(tmp_path):
    """A file torn mid-record (crashed writer) loses only the torn row."""
    path = tmp_path / "cut.jsonl"
    rows = [transaction_to_dict(t) for t in sample_transactions()]
    text = "\n".join(json.dumps(r) for r in rows)
    path.write_text(text[: len(text) - 15], encoding="utf-8")
    records, report = ingest_transactions(path, lenient=True)
    assert len(records) == len(rows) - 1
    assert report.counts_by_kind == {"parse": 1}
    assert report.errors[0].line_no == len(rows)


def test_report_merge_combines_counts(tmp_path):
    good = tmp_path / "good.jsonl"
    bad = tmp_path / "bad.jsonl"
    write_jsonl(good, [transaction_to_dict(t) for t in sample_transactions()])
    bad.write_text("not json\n", encoding="utf-8")
    _, report_good = ingest_transactions(good, lenient=True)
    _, report_bad = ingest_transactions(bad, lenient=True)
    merged = report_good.merge(report_bad)
    assert merged.n_rows == report_good.n_rows + 1
    assert merged.n_quarantined == 1
    assert "+" in merged.path
    assert 0.0 < merged.coverage < 1.0
