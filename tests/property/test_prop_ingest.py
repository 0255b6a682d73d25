"""Property: the daemon's column parser equals the row codec.

Hypothesis draws ingest batches that interleave radio and service rows
with every bad-row class the taxonomy knows — non-dict rows, unknown
kinds, missing fields, unknown enum values, uncoercible values, each
record invariant, and values the int64 / float columns cannot hold.
:func:`repro.service.protocol.parse_batch_rows` must accept exactly the
rows the row codec (``radio_event_from_dict`` / ``service_record_from_dict``,
row by row) accepts, pack them to the bytes ``pack_day_block`` writes
for those rows, and report the same errors in row order.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.blocks import pack_columns
from repro.datasets.io import (
    IngestErrorKind,
    decode_radio_row,
    decode_service_row,
    radio_event_from_dict,
    service_record_from_dict,
)
from repro.runtime.serialize import pack_day_block
from repro.service.protocol import parse_batch_rows
from repro.signaling.cdr import ServiceType
from repro.signaling.events import RadioInterface
from repro.signaling.procedures import MessageType, ResultCode

devices = st.sampled_from(["d0", "d1", "d2"])
plmns = st.sampled_from(["23410", "21407", "310260"])
timestamps = st.floats(min_value=0.0, max_value=3 * 86400.0 - 1)


@st.composite
def good_radio(draw):
    return {
        "kind": "radio",
        "device_id": draw(devices),
        "ts": draw(timestamps),
        "sim_plmn": draw(plmns),
        "tac": draw(st.integers(0, 10**8 - 1)),
        "sector": draw(st.integers(-5, 5)),
        "iface": draw(st.sampled_from([m.value for m in RadioInterface])),
        "type": draw(st.sampled_from([m.value for m in MessageType])),
        "result": draw(st.sampled_from([m.value for m in ResultCode])),
    }


@st.composite
def good_service(draw):
    voice = draw(st.booleans())
    return {
        "kind": "service",
        "device_id": draw(devices),
        "ts": draw(timestamps),
        "sim_plmn": draw(plmns),
        "visited_plmn": draw(plmns),
        "service": (ServiceType.VOICE if voice else ServiceType.DATA).value,
        "duration_s": draw(st.floats(0.0, 600.0)) if voice else 0.0,
        "bytes": 0 if voice else draw(st.integers(0, 10**9)),
        "apn": None if voice else draw(st.sampled_from([None, "iot.a", "m2m.b"])),
    }


#: Values that break a row at one field, by the layer that rejects them.
BAD_VALUES = {
    "device_id": [5, None, ["d0"]],
    "ts": [-1.0, float("nan"), float("inf"), -float("inf"), 1e300, 10**400, "x", None],
    "sim_plmn": ["9", "2341a", 23410, None],
    "visited_plmn": ["1234567", None],
    "tac": [-1, 10**8, json.loads("1e400"), float("nan"), "x"],
    "sector": [10**20, -(10**20), float("inf"), "x"],
    "iface": ["9G", None, ["S1"]],
    "type": ["telepathy", {}],
    "result": ["maybe"],
    "service": ["fax", None],
    "duration_s": [-5.0, 30.0, float("nan"), float("inf"), "x"],
    "bytes": [-1, 10**20, float("inf"), "x"],
    "apn": [7, "iot.a", ["x"]],
}


@st.composite
def damaged(draw, good):
    """A good row with one field replaced, dropped, or its kind broken."""
    row = draw(good)
    how = draw(st.sampled_from(["value", "drop", "kind"]))
    fields = sorted(key for key in row if key != "kind")
    if how == "kind":
        row["kind"] = draw(st.sampled_from(["telepathy", None, 3]))
    elif how == "drop":
        del row[draw(st.sampled_from(fields))]
    else:
        field = draw(st.sampled_from([f for f in fields if f in BAD_VALUES]))
        row[field] = draw(st.sampled_from(BAD_VALUES[field]))
    return row


not_a_dict = st.one_of(
    st.text(max_size=4), st.integers(), st.none(), st.lists(st.integers(), max_size=2)
)

rows = st.one_of(
    good_radio(),
    good_service(),
    damaged(good_radio()),
    damaged(good_service()),
    not_a_dict,
)


def _excerpt(row):
    return repr(row)[:80]


def reference(batch):
    """Row by row through the row codec: accepted rows and error tuples."""
    events, records, errors = [], [], []
    codecs = {
        "radio": (decode_radio_row, radio_event_from_dict, events),
        "service": (decode_service_row, service_record_from_dict, records),
    }
    for line_no, row in enumerate(batch, start=1):
        if not isinstance(row, dict):
            message = f"row is {type(row).__name__}, not an object"
            errors.append((line_no, IngestErrorKind.PARSE, message, _excerpt(row)))
            continue
        kind = row.get("kind")
        if kind not in codecs:
            message = f"unknown row kind {kind!r}"
            errors.append((line_no, IngestErrorKind.SCHEMA, message, _excerpt(row)))
            continue
        decode, from_dict, out = codecs[kind]
        try:
            decode(row)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            errors.append((line_no, IngestErrorKind.SCHEMA, str(exc), _excerpt(row)))
            continue
        try:
            out.append(from_dict(row))
        except ValueError as exc:
            errors.append((line_no, IngestErrorKind.SEMANTIC, str(exc), _excerpt(row)))
        except (TypeError, AttributeError) as exc:
            errors.append((line_no, IngestErrorKind.SCHEMA, str(exc), _excerpt(row)))
    return events, records, errors


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, max_size=30))
def test_column_parser_equals_the_row_codec(batch):
    events, records, errors = reference(batch)
    radio, service, report = parse_batch_rows(batch, source="b-prop")
    assert pack_columns(radio, service) == pack_day_block(events, records)
    assert [
        (e.line_no, e.kind, e.message, e.excerpt) for e in report.errors
    ] == errors
    assert all(e.path == "b-prop" for e in report.errors)
    assert report.n_rows == len(batch)
    assert report.n_ok == len(events) + len(records)
