"""Property: the daemon's column parser equals the row codec.

Hypothesis draws ingest batches that interleave radio and service rows
with every bad-row class the taxonomy knows — non-dict rows, unknown
kinds, missing fields, unknown enum values, uncoercible values, each
record invariant, and values the int64 / float columns cannot hold.
:func:`repro.service.protocol.parse_batch_rows` must accept exactly the
rows the row codec (``radio_event_from_dict`` / ``service_record_from_dict``,
row by row) accepts, pack them to the bytes ``pack_day_block`` writes
for those rows, and report the same errors in row order.

Clean batches take the column pass, so they are drawn on their own too:
all good (of either kind, both or neither), all good but one damaged
row, and good rows at the edges of what the checks accept.  The column
pass's appender, :func:`repro.columnar.store.from_field_columns`, is
also held directly: it returns the reference's stores for a batch the
reference takes whole, and nothing for any other.  So is the store
check it runs, :func:`repro.columnar.store.check_stores`, the one the
simulator runs too: over stores filled with no check, it raises what
the row checks raise.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.blocks import pack_columns, pack_day_block
from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    ColumnPools,
    check_stores,
    from_field_columns,
)
from repro.datasets.io import (
    IngestErrorKind,
    decode_radio_columns,
    decode_radio_row,
    decode_service_columns,
    decode_service_row,
    radio_event_from_dict,
    service_record_from_dict,
)
from repro.service.protocol import parse_batch_rows
from repro.signaling.cdr import ServiceType
from repro.signaling.events import RadioInterface
from repro.signaling.procedures import MessageType, ResultCode

from tests.service.test_protocol import DATA_SERVICE, GOOD_RADIO, GOOD_SERVICE

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


#: A timestamp on day 2**63, one past the last day int64 holds.
TS_ON_DAY_2_63 = 2.0**63 * 86400.0

#: Values that break a row at one field, by the layer that rejects them.
BAD_VALUES = {
    "device_id": [5, None, ["d0"]],
    "ts": [
        -1.0, float("nan"), float("inf"), -float("inf"), 1e300, TS_ON_DAY_2_63,
        10**400, "x", None,
    ],
    "sim_plmn": ["9", "2341a", 23410, None],
    "visited_plmn": ["1234567", None],
    "tac": [-1, 10**8, json.loads("1e400"), float("nan"), "x", 86000012.7],
    "sector": [10**20, -(10**20), float("inf"), "x", 3.9],
    "iface": ["9G", None, ["S1"]],
    "type": ["telepathy", {}],
    "result": ["maybe"],
    "service": ["fax", None],
    "duration_s": [-5.0, 30.0, float("nan"), float("inf"), "x"],
    "bytes": [-1, 10**20, float("inf"), "x", 1200.9],
    "apn": [7, "iot.a", ["x"]],
}


@st.composite
def damaged(draw, good, hows=("value", "drop", "kind")):
    """A good row with one field replaced, dropped, or its kind broken."""
    row = draw(good)
    how = draw(st.sampled_from(hows))
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


#: Good values at the edges of what the checks accept, by field.
EDGE_TIMESTAMPS = [
    0.0,
    86400,  # an int
    2.0e14,  # day 2,314,814,814, past int32
    math.nextafter(TS_ON_DAY_2_63, 0.0),  # the last day int64 holds
]
RADIO_EDGES = {
    "ts": EDGE_TIMESTAMPS,
    "tac": [True, False, 0, 10**8 - 1],
    "sector": [2**63 - 1, -(2**63 - 1), -(2**63)],
}
VOICE_EDGES = {"ts": EDGE_TIMESTAMPS, "duration_s": [0.0, 0, 1e300]}
DATA_EDGES = {"ts": EDGE_TIMESTAMPS, "bytes": [2**63 - 1, 0, True], "apn": ["", None]}


@st.composite
def at_the_edges(draw, good, edges):
    """A good row with one to three fields set to edge values."""
    row = draw(good)
    if callable(edges):
        edges = edges(row)
    for field in draw(st.lists(st.sampled_from(sorted(edges)), min_size=1, max_size=3)):
        row[field] = draw(st.sampled_from(edges[field]))
    return row


def _service_edges(row):
    return VOICE_EDGES if row["service"] == ServiceType.VOICE.value else DATA_EDGES


good_rows = st.one_of(good_radio(), good_service())

good_batches = st.one_of(
    st.just([]),
    st.lists(good_radio(), min_size=1, max_size=30),
    st.lists(good_service(), min_size=1, max_size=30),
    st.lists(good_rows, min_size=1, max_size=30),
)


@st.composite
def one_damaged_row(draw):
    """A good batch with one bad row of any class at a random position."""
    batch = draw(st.lists(good_rows, max_size=30))
    bad = draw(st.one_of(damaged(good_radio()), damaged(good_service()), not_a_dict))
    batch.insert(draw(st.integers(0, len(batch))), bad)
    return batch


edge_rows = st.one_of(
    at_the_edges(good_radio(), RADIO_EDGES),
    at_the_edges(good_service(), _service_edges),
    good_rows,
)

@st.composite
def bad_values_among_good_rows(draw, max_bad=2):
    """Good and edge rows with up to ``max_bad`` rows holding a bad value."""
    batch = draw(st.lists(edge_rows, max_size=20))
    for _ in range(draw(st.integers(0, max_bad))):
        good = draw(st.sampled_from([good_radio(), good_service()]))
        batch.insert(draw(st.integers(0, len(batch))), draw(damaged(good, hows=("value",))))
    return batch


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


def assert_parses_as_the_row_codec(batch):
    events, records, errors = reference(batch)
    radio, service, report = parse_batch_rows(batch, source="b-prop")
    assert pack_columns(radio, service) == pack_day_block(events, records)
    assert [
        (e.line_no, e.kind, e.message, e.excerpt) for e in report.errors
    ] == errors
    assert all(e.path == "b-prop" for e in report.errors)
    assert report.n_rows == len(batch)
    assert report.n_ok == len(events) + len(records)


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, max_size=30))
def test_column_parser_equals_the_row_codec(batch):
    assert_parses_as_the_row_codec(batch)


@settings(max_examples=200, deadline=None)
@given(good_batches)
def test_good_batches_parse_as_the_row_codec(batch):
    assert_parses_as_the_row_codec(batch)


@settings(max_examples=200, deadline=None)
@given(one_damaged_row())
def test_good_batches_with_one_damaged_row_parse_as_the_row_codec(batch):
    assert_parses_as_the_row_codec(batch)


@settings(max_examples=200, deadline=None)
@given(st.lists(edge_rows, max_size=30))
def test_edge_values_parse_as_the_row_codec(batch):
    assert_parses_as_the_row_codec(batch)


def decoded_by_column(batch):
    """The batch's field columns, or None for a batch the column
    decoders cannot decode (the row loop's)."""
    try:
        return (
            decode_radio_columns([row for row in batch if row["kind"] == "radio"]),
            decode_service_columns([row for row in batch if row["kind"] == "service"]),
        )
    except (KeyError, TypeError, OverflowError):
        return None


@settings(max_examples=300, deadline=None)
@given(bad_values_among_good_rows())
def test_batch_appender_takes_only_batches_the_row_codec_takes(batch):
    """Over a batch the columns decode, ``from_field_columns`` returns
    stores exactly when the reference accepts every row: its stores."""
    events, records, errors = reference(batch)
    columns = decoded_by_column(batch)
    if columns is None:
        return
    stores = from_field_columns(*columns)
    assert (stores is not None) == (errors == [])
    if stores is not None:
        assert pack_columns(*stores) == pack_day_block(events, records)


def row_check_error(row):
    """What the row codec raises on ``row``, or None."""
    from_dict = radio_event_from_dict if row["kind"] == "radio" else service_record_from_dict
    try:
        from_dict(row)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        return exc
    return None


def assert_store_check_raises_what_the_row_checks_raise(batch):
    """``check_stores`` over a batch's stores, filled with no check,
    raises exactly when a row check does, and what it raises: the same
    error for the one bad row (a ``TypeError`` for a PLMN that is not a
    string, where the row check's ``isdigit`` call raises
    ``AttributeError``)."""
    columns = decoded_by_column(batch)
    if columns is None:
        return
    row_errors = [error for error in map(row_check_error, batch) if error is not None]
    pools = ColumnPools()
    try:
        stores = (
            ColumnarRadioEvents(pools)._filled(columns[0]),
            ColumnarServiceRecords(pools)._filled(columns[1]),
        )
    except TypeError:  # a string column value that cannot be interned
        assert row_errors
        return
    try:
        check_stores(*stores)
    except (TypeError, ValueError) as exc:
        (expected,) = row_errors
        if isinstance(expected, AttributeError):
            assert isinstance(exc, TypeError) and "PLMN must be a string" in str(exc)
        else:
            assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert row_errors == []


@settings(max_examples=300, deadline=None)
@given(bad_values_among_good_rows(max_bad=1))
def test_store_check_raises_what_the_row_checks_raise(batch):
    assert_store_check_raises_what_the_row_checks_raise(batch)


#: Each bad value on each row kind that has its field, for the sweep.
BAD_VALUE_CASES = [
    pytest.param(row, field, value, id=f"{name}-{field}-{index}")
    for name, row in (("radio", GOOD_RADIO), ("voice", GOOD_SERVICE), ("data", DATA_SERVICE))
    for field, values in sorted(BAD_VALUES.items())
    if field in row
    for index, value in enumerate(values)
]


@pytest.mark.parametrize("row, field, value", BAD_VALUE_CASES)
def test_each_bad_value_in_a_good_batch_parses_as_the_row_codec(row, field, value):
    """Every bad value, one at a time, among good rows of both kinds:
    each check of the column pass is reached, whatever hypothesis draws."""
    batch = [GOOD_RADIO, DATA_SERVICE, dict(row, **{field: value}), GOOD_SERVICE]
    assert_parses_as_the_row_codec(batch)


@pytest.mark.parametrize("row, field, value", BAD_VALUE_CASES)
def test_each_bad_value_in_a_good_batch_raises_in_the_store_check(row, field, value):
    """The same sweep through the store check the simulator runs."""
    batch = [GOOD_RADIO, DATA_SERVICE, dict(row, **{field: value}), GOOD_SERVICE]
    assert_store_check_raises_what_the_row_checks_raise(batch)
