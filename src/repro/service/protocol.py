"""Wire protocol: line-delimited JSON requests, lenient batch parsing.

One request per line, one JSON response per line.  Ingest rows reuse the
exact dict shapes :mod:`repro.datasets.io` writes to JSONL, tagged with
a ``kind`` discriminator::

    {"op": "ingest", "batch_id": "b-1", "rows": [
        {"kind": "radio", "device_id": "d0", "ts": 10.0, "sim_plmn":
         "23410", "tac": 86000012, "sector": 3, "iface": "S1",
         "type": "attach", "result": "OK"},
        {"kind": "service", "device_id": "d0", "ts": 11.0, ...}]}

:func:`parse_batch_rows` decodes a batch straight into one pair of
column stores with fresh pools — the form the WAL packs and the catalog
folds — without building a row object.  A batch whose rows all pass is
decoded a column at a time and held to the whole-store check
(:func:`~repro.columnar.store.check_stores`); any other batch is decoded
and checked row by row, which is where each rejection is reported, and
its accepted rows fill the stores a column at a time.  Parsing is *lenient* with the
ingest taxonomy of :class:`repro.datasets.io.IngestReport`: a row that
is not a dict is a ``parse`` error; an unknown ``kind``, a missing or
uncoercible field, an unknown enum value or a wrongly-typed device id or
APN is ``schema``; and values that violate the record invariants
(negative or non-finite timestamps, malformed PLMNs, numbers the int64
columns cannot hold) are ``semantic``.  The decoder and the invariant
checks are the ones file ingest and the record dataclasses use.  A
hostile batch therefore degrades into quarantine counts in the ack; it
never kills the daemon or leaves a row the fold cannot take.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    ColumnPools,
    RadioFields,
    ServiceFields,
    from_field_columns,
)
from repro.datasets.io import (
    _DECODE_ERRORS,
    IngestError,
    IngestErrorKind,
    IngestReport,
    decode_radio_columns,
    decode_radio_row,
    decode_service_columns,
    decode_service_row,
    ingest_row,
)
from repro.signaling.cdr import SERVICE_TYPES, check_service_record
from repro.signaling.events import check_radio_event

#: How much of a bad row an IngestError keeps for debugging.
_EXCERPT_CHARS = 80

#: Row discriminator values.
ROW_KIND_RADIO = "radio"
ROW_KIND_SERVICE = "service"

_Fields = TypeVar("_Fields", bound=Tuple[Any, ...])

#: One row of a batch with its 1-based position.
_NumberedRow = Tuple[int, Any]

#: The typecode of each decoded field's column, in field order; None
#: keeps the values as read (the strings, for interning).
_RADIO_TYPECODES = (None, "d", None, "q", "q", "b", "b", "b")
_SERVICE_TYPECODES = (None, "d", None, None, "b", "d", "q", None)


def _excerpt(row: Any) -> str:
    return repr(row)[:_EXCERPT_CHARS]


def _check_radio(fields: RadioFields) -> None:
    check_radio_event(*fields[:5])


def _check_service(fields: ServiceFields) -> None:
    device_id, timestamp, sim_plmn, visited_plmn, service, duration_s, bytes_total, apn = fields
    check_service_record(
        device_id, timestamp, sim_plmn, visited_plmn,
        SERVICE_TYPES[service], duration_s, bytes_total, apn,
    )


def _accepted_fields(
    numbered_rows: List[_NumberedRow],
    decode: Callable[[Any], _Fields],
    check: Callable[[_Fields], None],
    source: str,
    errors: List[IngestError],
) -> List[_Fields]:
    """The decoded fields of each row that passes ``check``; each
    rejection goes to ``errors``, named by :func:`ingest_row`."""
    accepted: List[_Fields] = []

    def accept(fields: _Fields) -> None:
        check(fields)
        accepted.append(fields)

    for line_no, row in numbered_rows:
        rejected = ingest_row(row, decode, accept)
        if rejected is not None:
            kind, exc = rejected
            errors.append(IngestError(source, line_no, kind, str(exc), _excerpt(row)))
    return accepted


def _field_columns(rows: Sequence[Tuple[Any, ...]], typecodes: Tuple[Optional[str], ...]) -> Any:
    """Checked field tuples by column, in the form
    :func:`~repro.datasets.io.decode_radio_columns` gives."""
    columns = tuple(zip(*rows)) or ((),) * len(typecodes)
    return tuple(
        values if typecode is None else array(typecode, values)
        for typecode, values in zip(typecodes, columns)
    )


def _by_column(
    radio_rows: List[_NumberedRow], service_rows: List[_NumberedRow]
) -> Optional[Tuple[ColumnarRadioEvents, ColumnarServiceRecords]]:
    """The rows decoded and checked a column at a time; None when a
    column refuses a value or a row fails its check."""
    try:
        radio = decode_radio_columns([row for _, row in radio_rows])
        service = decode_service_columns([row for _, row in service_rows])
    except _DECODE_ERRORS:
        return None
    return from_field_columns(radio, service)


def parse_batch_rows(
    rows: Sequence[Any], source: str = "ingest"
) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords, IngestReport]:
    """Leniently decode one batch's rows into checked, interned columns.

    Returns a radio and a service store sharing one fresh
    :class:`~repro.columnar.store.ColumnPools`, and the report.  Never
    raises on bad rows: every rejection is quarantined into the
    :class:`IngestReport` (in row order, ``line_no`` counting from 1)
    under the parse/schema/semantic taxonomy, and the good rows still
    ingest.  Every radio row is interned before any service row — the
    order :func:`~repro.columnar.store.from_record_streams` interns in —
    so the stores pack to the same bytes as ``pack_day_block`` of the
    accepted rows however the batch interleaves the two kinds.  A batch
    of good rows takes the column pass, which builds the same stores in
    a few passes per column; a batch the column pass refuses takes the
    row loop, which decodes and checks each row, then fills fresh pools
    with the accepted rows once.
    """
    errors: List[IngestError] = []
    radio_rows: List[_NumberedRow] = []
    service_rows: List[_NumberedRow] = []
    for line_no, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            message = f"row is {type(row).__name__}, not an object"
            errors.append(
                IngestError(source, line_no, IngestErrorKind.PARSE, message, _excerpt(row))
            )
            continue
        kind = row.get("kind")
        if kind == ROW_KIND_RADIO:
            radio_rows.append((line_no, row))
        elif kind == ROW_KIND_SERVICE:
            service_rows.append((line_no, row))
        else:
            message = f"unknown row kind {kind!r}"
            errors.append(
                IngestError(source, line_no, IngestErrorKind.SCHEMA, message, _excerpt(row))
            )
    if not errors:
        stores = _by_column(radio_rows, service_rows)
        if stores is not None:
            report = IngestReport(path=source, n_rows=len(rows), n_ok=len(rows), errors=[])
            return stores[0], stores[1], report
    radio_fields = _accepted_fields(radio_rows, decode_radio_row, _check_radio, source, errors)
    service_fields = _accepted_fields(
        service_rows, decode_service_row, _check_service, source, errors
    )
    pools = ColumnPools()
    radio = ColumnarRadioEvents(pools)._filled(_field_columns(radio_fields, _RADIO_TYPECODES))
    service = ColumnarServiceRecords(pools)._filled(
        _field_columns(service_fields, _SERVICE_TYPECODES)
    )
    errors.sort(key=lambda error: error.line_no)
    report = IngestReport(
        path=source, n_rows=len(rows), n_ok=len(radio) + len(service), errors=errors
    )
    return radio, service, report


def report_payload(report: IngestReport) -> Dict[str, Any]:
    """The ack's quarantine section: counts plus the first few errors."""
    return {
        "n_rows": report.n_rows,
        "n_ok": report.n_ok,
        "n_quarantined": report.n_quarantined,
        "coverage": report.coverage,
        "counts_by_kind": report.counts_by_kind,
        "errors": [str(error) for error in report.errors[:5]],
    }
