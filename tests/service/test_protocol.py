"""Lenient batch parsing: the parse/schema/semantic quarantine taxonomy."""

import json

import pytest

from repro.columnar.blocks import pack_columns, pack_day_block
from repro.datasets.io import IngestErrorKind, radio_event_from_dict, service_record_from_dict
from repro.service import parse_batch_rows, protocol
from repro.service.protocol import report_payload
from repro.signaling.events import RadioInterface

GOOD_RADIO = {
    "kind": "radio",
    "device_id": "d0",
    "ts": 10.0,
    "sim_plmn": "23410",
    "tac": 86000012,
    "sector": 3,
    "iface": "S1",
    "type": "attach",
    "result": "OK",
}

GOOD_SERVICE = {
    "kind": "service",
    "device_id": "d0",
    "ts": 11.0,
    "sim_plmn": "23410",
    "visited_plmn": "23410",
    "service": "voice",
    "duration_s": 30.0,
    "bytes": 0,
    "apn": None,
}

DATA_SERVICE = dict(
    GOOD_SERVICE, service="data", duration_s=0.0, bytes=1200, apn="iot.example"
)

#: Well-typed rows whose values the int64 / float columns cannot hold:
#: each is a semantic error (before, each passed the parser and then
#: raised in the drain loop's interning, stalling its batch id).
UNREPRESENTABLE_ROWS = {
    "ts-nan": dict(GOOD_RADIO, device_id="hostile", ts=float("nan")),
    "ts-inf": dict(GOOD_RADIO, device_id="hostile", ts=float("inf")),
    "ts-1e300": dict(GOOD_RADIO, device_id="hostile", ts=1e300),
    # Day 2**63 exactly: INT64_MAX rounds to it as a float, so only a
    # comparison against 2.0**63 itself keeps it out of the columns.
    "ts-day-2**63": dict(GOOD_RADIO, device_id="hostile", ts=2.0**63 * 86400.0),
    "sector-1e20": dict(GOOD_RADIO, device_id="hostile", sector=10**20),
    "bytes-1e20": dict(DATA_SERVICE, device_id="hostile", bytes=10**20),
}

#: Wrongly-typed values: each is a schema error.  A device id or APN
#: that is not a string used to be acked and then break every query; a
#: number too large for a float or an int used to escape the parser.
MISTYPED_ROWS = {
    "device-id-int": dict(GOOD_RADIO, device_id=5),
    "apn-int": dict(DATA_SERVICE, device_id="hostile", apn=7),
    "tac-1e400": dict(GOOD_RADIO, device_id="hostile", tac=json.loads("1e400")),
    "bytes-infinity": dict(DATA_SERVICE, device_id="hostile", bytes=float("inf")),
    "ts-int-past-float": dict(GOOD_RADIO, device_id="hostile", ts=10**400),
    # A fractional integer field used to be truncated and acked.
    "tac-fraction": dict(GOOD_RADIO, device_id="hostile", tac=86000012.7),
    "sector-fraction": dict(GOOD_RADIO, device_id="hostile", sector=3.9),
    "bytes-fraction": dict(DATA_SERVICE, device_id="hostile", bytes=1200.9),
}


def kinds_of(report):
    return {e.kind for e in report.errors}


def test_good_rows_round_trip():
    radio, service, report = parse_batch_rows([GOOD_RADIO, GOOD_SERVICE])
    events, records = radio.to_rows(), service.to_rows()
    assert len(events) == 1 and len(records) == 1
    assert events[0].device_id == "d0"
    assert records[0].duration_s == 30.0
    assert report.n_rows == 2 and report.n_ok == 2
    assert report.errors == []


def test_non_dict_row_is_parse_error():
    _, _, report = parse_batch_rows(["not an object", 42, None])
    assert report.n_ok == 0
    assert kinds_of(report) == {IngestErrorKind.PARSE}


def test_unknown_or_missing_kind_is_schema_error():
    no_kind = dict(GOOD_RADIO)
    del no_kind["kind"]
    wrong_kind = dict(GOOD_RADIO, kind="telepathy")
    _, _, report = parse_batch_rows([no_kind, wrong_kind])
    assert report.n_ok == 0
    assert kinds_of(report) == {IngestErrorKind.SCHEMA}
    assert "telepathy" in str(report.errors[1])


def test_missing_field_and_bad_enum_are_schema_errors():
    missing = dict(GOOD_RADIO)
    del missing["tac"]
    bad_enum = dict(GOOD_RADIO, iface="9G")
    _, _, report = parse_batch_rows([missing, bad_enum])
    assert report.n_ok == 0
    assert kinds_of(report) == {IngestErrorKind.SCHEMA}


def test_invariant_violation_is_semantic_error():
    # Well-typed fields, but the record's own invariant rejects them.
    negative_duration = dict(GOOD_SERVICE, duration_s=-5.0)
    negative_ts = dict(GOOD_RADIO, ts=-1.0)
    _, _, report = parse_batch_rows([negative_duration, negative_ts])
    assert report.n_ok == 0
    assert kinds_of(report) == {IngestErrorKind.SEMANTIC}


def test_hostile_batch_degrades_not_dies():
    rows = [
        GOOD_RADIO,
        "garbage",
        dict(GOOD_RADIO, iface="9G"),
        dict(GOOD_SERVICE, duration_s=-5.0),
        GOOD_SERVICE,
    ]
    radio, service, report = parse_batch_rows(rows, source="b-hostile")
    events, records = radio.to_rows(), service.to_rows()
    assert len(events) == 1 and len(records) == 1
    assert report.n_rows == 5 and report.n_ok == 2
    assert report.n_quarantined == 3
    assert report.counts_by_kind == {"parse": 1, "schema": 1, "semantic": 1}
    assert all(e.path == "b-hostile" for e in report.errors)


def test_report_payload_caps_errors_at_five():
    rows = ["x"] * 8 + [GOOD_RADIO]
    _, _, report = parse_batch_rows(rows)
    payload = report_payload(report)
    assert payload["n_rows"] == 9
    assert payload["n_ok"] == 1
    assert payload["n_quarantined"] == 8
    assert len(payload["errors"]) == 5
    assert 0.0 < payload["coverage"] < 1.0


def assert_only_the_good_row_ingests(radio, service, report, kind):
    assert report.n_rows == 2 and report.n_ok == 1
    assert kinds_of(report) == {kind}
    assert report.errors[0].line_no == 2
    assert radio.to_rows() == parse_batch_rows([GOOD_RADIO])[0].to_rows()
    assert len(service) == 0
    # The check runs before interning: the rejected row left no string.
    assert "hostile" not in radio.pools.devices
    assert "iot.example" not in radio.pools.apns
    pack_columns(radio, service)


@pytest.mark.parametrize("name", sorted(UNREPRESENTABLE_ROWS))
def test_value_the_columns_cannot_hold_is_semantic(name):
    radio, service, report = parse_batch_rows([GOOD_RADIO, UNREPRESENTABLE_ROWS[name]])
    assert_only_the_good_row_ingests(radio, service, report, IngestErrorKind.SEMANTIC)


@pytest.mark.parametrize("name", sorted(MISTYPED_ROWS))
def test_wrongly_typed_value_is_schema(name):
    radio, service, report = parse_batch_rows([GOOD_RADIO, MISTYPED_ROWS[name]])
    assert_only_the_good_row_ingests(radio, service, report, IngestErrorKind.SCHEMA)


def test_fractional_integers_are_refused_not_truncated():
    rows = [dict(GOOD_RADIO, sector=3.9, tac=86000012.7), dict(DATA_SERVICE, bytes=1200.9)]
    radio, service, report = parse_batch_rows(rows)
    assert (report.n_ok, len(radio), len(service)) == (0, 0, 0)
    assert [(e.line_no, e.kind, e.message) for e in report.errors] == [
        (1, IngestErrorKind.SCHEMA, "86000012.7 is not an integer"),
        (2, IngestErrorKind.SCHEMA, "1200.9 is not an integer"),
    ]


@pytest.mark.parametrize(
    "row, kind, message",
    [
        (dict(GOOD_RADIO, device_id=5, ts=-1.0), "semantic", "negative timestamp -1.0"),
        (dict(GOOD_RADIO, ts=float("nan"), sim_plmn="9"), "semantic", "SIM PLMN"),
        (dict(GOOD_SERVICE, apn=7), "semantic", "voice CDRs carry no APN"),
        (dict(DATA_SERVICE, duration_s=float("nan")), "semantic", "data xDRs carry bytes"),
        (dict(GOOD_RADIO, sector=10**20, iface="9G"), "schema", "not a valid RadioInterface"),
    ],
)
def test_rows_rejected_before_keep_their_kind_and_message(row, kind, message):
    """The new checks run after the original ones."""
    _, _, report = parse_batch_rows([row])
    (error,) = report.errors
    assert error.kind.value == kind
    assert message in error.message


def test_interleaved_batch_interns_radio_first_and_reports_in_row_order():
    radio_row = dict(GOOD_RADIO, device_id="r")
    service_row = dict(GOOD_SERVICE, device_id="s")
    rows = [
        service_row,
        dict(GOOD_SERVICE, ts=-1.0),
        radio_row,
        dict(GOOD_RADIO, iface="9G"),
        "garbage",
    ]
    radio, service, report = parse_batch_rows(rows, source="b-mixed")
    assert radio.pools is service.pools
    assert radio.pools.devices.strings == ("r", "s")
    assert pack_columns(radio, service) == pack_day_block(
        radio.to_rows(), service.to_rows()
    )
    assert [(e.line_no, e.kind.value) for e in report.errors] == [
        (2, "semantic"), (4, "schema"), (5, "parse"),
    ]
    assert report.errors[2].excerpt == repr("garbage")


def row_codec_block(rows):
    """``pack_day_block`` of the rows, each built by the row codec."""
    return pack_day_block(
        [radio_event_from_dict(row) for row in rows if row["kind"] == "radio"],
        [service_record_from_dict(row) for row in rows if row["kind"] == "service"],
    )


GOOD_BATCHES = {
    "empty": [],
    "radio-only": [GOOD_RADIO, dict(GOOD_RADIO, device_id="d1", ts=86400.0 * 3)],
    "service-only": [DATA_SERVICE, GOOD_SERVICE, dict(DATA_SERVICE, apn="")],
    "mixed": [
        DATA_SERVICE,
        dict(GOOD_RADIO, device_id="r", sim_plmn="310260"),
        GOOD_SERVICE,
        GOOD_RADIO,
    ],
}


@pytest.mark.parametrize("name", sorted(GOOD_BATCHES))
def test_good_batch_never_calls_the_row_decoders(monkeypatch, name):
    """A batch of good rows takes the column pass only."""

    def row_decoder(row):
        raise AssertionError("a good batch reached the row decoder")

    monkeypatch.setattr(protocol, "decode_radio_row", row_decoder)
    monkeypatch.setattr(protocol, "decode_service_row", row_decoder)
    rows = GOOD_BATCHES[name]
    radio, service, report = parse_batch_rows(rows, source="b-good")
    assert radio.pools is service.pools
    assert pack_columns(radio, service) == row_codec_block(rows)
    assert (report.path, report.n_rows, report.n_ok, report.errors) == (
        "b-good", len(rows), len(rows), []
    )


#: Good rows whose values only the row decoder converts: a string
#: number, a float where an int goes, an enum member for its value.
ROW_DECODER_ONLY = {
    "ts-string": dict(GOOD_RADIO, ts="10.0"),
    "tac-float": dict(GOOD_RADIO, tac=86000012.0),
    "sector-string": dict(GOOD_RADIO, sector="3"),
    "iface-member": dict(GOOD_RADIO, iface=RadioInterface.GB),
    "bytes-float": dict(DATA_SERVICE, bytes=1200.0),
}


@pytest.mark.parametrize("name", sorted(ROW_DECODER_ONLY))
def test_batch_the_columns_refuse_takes_the_row_loop(name):
    rows = [GOOD_RADIO, ROW_DECODER_ONLY[name], GOOD_SERVICE]
    radio, service, report = parse_batch_rows(rows)
    assert report.errors == [] and report.n_ok == 3
    assert pack_columns(radio, service) == row_codec_block(rows)
