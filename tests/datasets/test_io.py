"""Round-trip tests for JSONL serialization."""

import json

import pytest

from repro.datasets.io import (
    IngestErrorKind,
    ingest_radio_events,
    ingest_service_records,
    ingest_transactions,
    radio_event_from_dict,
    radio_event_to_dict,
    read_jsonl,
    read_radio_events,
    read_service_records,
    read_transactions,
    service_record_from_dict,
    service_record_to_dict,
    transaction_from_dict,
    transaction_to_dict,
    write_jsonl,
    write_radio_events,
    write_service_records,
    write_transactions,
)
from repro.signaling.cdr import data_xdr, voice_cdr
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode, SignalingTransaction


def _txn():
    return SignalingTransaction(
        device_id="abc",
        timestamp=12.5,
        sim_plmn="21407",
        visited_plmn="23410",
        message_type=MessageType.AUTHENTICATION,
        result=ResultCode.ROAMING_NOT_ALLOWED,
    )


def _event():
    return RadioEvent(
        device_id="abc",
        timestamp=99.0,
        sim_plmn="23410",
        tac=35000001,
        sector_id=4,
        interface=RadioInterface.IU_CS,
        event_type=MessageType.ROUTING_AREA_UPDATE,
        result=ResultCode.OK,
    )


class TestDictRoundTrips:
    def test_transaction(self):
        txn = _txn()
        assert transaction_from_dict(transaction_to_dict(txn)) == txn

    def test_radio_event(self):
        event = _event()
        assert radio_event_from_dict(radio_event_to_dict(event)) == event

    def test_voice_record(self):
        record = voice_cdr("d", 1.0, "21407", "23410", 33.0)
        assert service_record_from_dict(service_record_to_dict(record)) == record

    def test_data_record_with_apn(self):
        record = data_xdr("d", 1.0, "21407", "23410", 777, "internet.op.com")
        assert service_record_from_dict(service_record_to_dict(record)) == record

    def test_data_record_without_apn(self):
        record = data_xdr("d", 1.0, "21407", "23410", 777, None)
        restored = service_record_from_dict(service_record_to_dict(record))
        assert restored.apn is None


class TestFileRoundTrips:
    def test_transactions_file(self, tmp_path):
        path = tmp_path / "txns.jsonl"
        txns = [_txn(), _txn()]
        assert write_transactions(path, txns) == 2
        assert read_transactions(path) == txns

    def test_radio_events_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [_event()]
        write_radio_events(path, events)
        assert read_radio_events(path) == events

    def test_service_records_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            voice_cdr("d", 1.0, "21407", "23410", 33.0),
            data_xdr("d", 2.0, "21407", "23410", 42, "apn.x"),
        ]
        write_service_records(path, records)
        assert read_service_records(path) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"a": 1}])
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert list(read_jsonl(path)) == [{"a": 1}]

    def test_simulated_dataset_round_trip(self, tmp_path, m2m_dataset):
        path = tmp_path / "m2m.jsonl"
        sample = m2m_dataset.transactions[:500]
        write_transactions(path, sample)
        assert read_transactions(path) == sample


class TestValuesTheColumnsCannotHold:
    """File ingest shares the record checks the daemon's parser runs."""

    def _write(self, path, good, bad_lines):
        lines = [json.dumps(good), *bad_lines]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_lenient_radio_ingest_quarantines_them(self, tmp_path):
        path = tmp_path / "radio.jsonl"
        good = radio_event_to_dict(_event())
        self._write(path, good, [
            json.dumps(good).replace('"tac": 35000001', '"tac": 1e400'),
            json.dumps(dict(good, ts=float("nan"))),
            json.dumps(dict(good, sector=10**20)),
            json.dumps(dict(good, device_id=5)),
        ])
        events, report = ingest_radio_events(path, lenient=True)
        assert events == [_event()]
        assert [(e.line_no, e.kind) for e in report.errors] == [
            (2, IngestErrorKind.SCHEMA),
            (3, IngestErrorKind.SEMANTIC),
            (4, IngestErrorKind.SEMANTIC),
            (5, IngestErrorKind.SCHEMA),
        ]

    def test_lenient_service_ingest_quarantines_them(self, tmp_path):
        path = tmp_path / "service.jsonl"
        good = service_record_to_dict(data_xdr("d", 2.0, "21407", "23410", 42, "apn.x"))
        self._write(path, good, [
            json.dumps(dict(good, bytes=float("inf"))),
            json.dumps(dict(good, bytes=10**20)),
            json.dumps(dict(good, apn=7)),
        ])
        records, report = ingest_service_records(path, lenient=True)
        assert len(records) == 1
        assert [(e.line_no, e.kind) for e in report.errors] == [
            (2, IngestErrorKind.SCHEMA),
            (3, IngestErrorKind.SEMANTIC),
            (4, IngestErrorKind.SCHEMA),
        ]

    def test_strict_ingest_raises_an_overflow_with_its_location(self, tmp_path):
        path = tmp_path / "radio.jsonl"
        good = radio_event_to_dict(_event())
        self._write(path, good, [json.dumps(good).replace('"tac": 35000001', '"tac": 1e400')])
        with pytest.raises(OverflowError, match=r"radio\.jsonl:2\]"):
            ingest_radio_events(path)

    def test_lenient_transaction_ingest_quarantines_them(self, tmp_path):
        path = tmp_path / "txn.jsonl"
        good = transaction_to_dict(_txn())
        self._write(path, good, [
            json.dumps(dict(good, ts=float("nan"))),
            json.dumps(dict(good, ts=float("inf"))),
            json.dumps(dict(good, ts=1e300)),
            json.dumps(dict(good, device_id=5)),
        ])
        txns, report = ingest_transactions(path, lenient=True)
        assert txns == [_txn()]
        assert [(e.line_no, e.kind) for e in report.errors] == [
            (2, IngestErrorKind.SEMANTIC),
            (3, IngestErrorKind.SEMANTIC),
            (4, IngestErrorKind.SEMANTIC),
            (5, IngestErrorKind.SCHEMA),
        ]

    @pytest.mark.parametrize(
        "bad, error",
        [({"ts": float("nan")}, ValueError), ({"device_id": 5}, TypeError)],
        ids=["nan-ts", "int-device-id"],
    )
    def test_strict_transaction_ingest_raises_with_its_location(self, tmp_path, bad, error):
        path = tmp_path / "txn.jsonl"
        good = transaction_to_dict(_txn())
        self._write(path, good, [json.dumps(dict(good, **bad))])
        with pytest.raises(error, match=r"txn\.jsonl:2\]"):
            ingest_transactions(path)

    def test_fractional_integers_are_quarantined_not_truncated(self, tmp_path):
        radio_path = tmp_path / "radio.jsonl"
        good = radio_event_to_dict(_event())
        self._write(radio_path, good, [
            json.dumps(dict(good, tac=35000001.7)),
            json.dumps(dict(good, sector=3.9)),
            json.dumps(dict(good, tac=35000001.0, sector="4")),  # integral: kept
        ])
        events, report = ingest_radio_events(radio_path, lenient=True)
        assert events == [_event(), _event()]
        assert [(e.line_no, e.kind, e.message) for e in report.errors] == [
            (2, IngestErrorKind.SCHEMA, "35000001.7 is not an integer"),
            (3, IngestErrorKind.SCHEMA, "3.9 is not an integer"),
        ]
        service_path = tmp_path / "service.jsonl"
        good = service_record_to_dict(data_xdr("d", 2.0, "21407", "23410", 42, "apn.x"))
        self._write(service_path, good, [json.dumps(dict(good, bytes=1200.9))])
        with pytest.raises(ValueError, match=r"1200\.9 is not an integer \[.*service\.jsonl:2\]"):
            ingest_service_records(service_path)
