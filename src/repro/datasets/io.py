"""JSONL serialization for the three record types, with resilient ingest.

Datasets are expensive to generate at scale, so the record streams can
be written once and re-read by any analysis.  JSON Lines keeps the
format greppable and append-friendly; every record type serializes to a
flat dict of primitives.

Reading has two modes.  **Strict** (the default, and what the plain
``read_*`` functions do) raises on the first bad row, with the file and
line number in the error — an analysis should never silently run on a
partially-read dataset.  **Lenient** (``ingest_*`` with
``lenient=True``) quarantines bad rows into a typed
:class:`IngestReport` instead, classifying each error as

* ``parse`` — the line is not UTF-8 JSON at all (torn writes,
  truncation, bit rot);
* ``schema`` — valid JSON that does not match the codec (missing field,
  unknown enum value, uncoercible or wrongly-typed value);
* ``semantic`` — a well-formed row whose values violate the record
  invariants (negative or non-finite timestamp, malformed PLMN, a value
  the int64 columns cannot hold).

The taxonomy mirrors :class:`repro.faults.plan.CorruptionKind`, so every
fault the injection layer can put into a file lands in exactly one
bucket here.  File ingest and the catalog daemon's batch parser share
each row kind's decoder and invariant check, and :func:`ingest_row`
sorts a row's failure into the taxonomy for both.  The daemon first
tries a clean batch by column (:func:`decode_radio_columns` /
:func:`decode_service_columns`), and falls back to the row decoders.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.columnar.store import (
    INTERFACE_INDEX,
    MESSAGE_INDEX,
    RESULT_INDEX,
    SERVICE_INDEX,
    RadioColumns,
    RadioFields,
    ServiceColumns,
    ServiceFields,
)
from repro.signaling.cdr import SERVICE_TYPES, ServiceRecord, ServiceType
from repro.signaling.events import RADIO_INTERFACES, RadioEvent, RadioInterface
from repro.signaling.procedures import (
    MESSAGE_TYPES,
    RESULT_CODES,
    MessageType,
    ResultCode,
    SignalingTransaction,
)

PathLike = Union[str, Path]

R = TypeVar("R")
F = TypeVar("F")

#: What decoding a row's fields can raise (missing key, enum lookup,
#: type coercion, a number too large for a float): each is *schema*.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)

#: How much of a bad raw line an IngestError keeps for debugging.
_EXCERPT_CHARS = 80

#: What parsing one line can raise: each is *parse*.
_PARSE_ERRORS = (json.JSONDecodeError, UnicodeDecodeError)


class IngestErrorKind(str, Enum):
    """Which layer rejected a quarantined row."""

    PARSE = "parse"
    SCHEMA = "schema"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class IngestError:
    """One quarantined row: where it was, why it was rejected."""

    path: str
    line_no: int
    kind: IngestErrorKind
    message: str
    excerpt: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.kind.value}] {self.message}"


@dataclass
class IngestReport:
    """Outcome of reading one (or several merged) JSONL files.

    ``n_rows`` counts physical non-blank lines; ``n_ok`` the rows that
    became records.  ``coverage`` is the fraction that survived — the
    number an analysis should report alongside any result computed from
    a lenient read.
    """

    path: str = ""
    n_rows: int = 0
    n_ok: int = 0
    errors: List[IngestError] = field(default_factory=list)

    @property
    def n_quarantined(self) -> int:
        return len(self.errors)

    @property
    def ok(self) -> bool:
        """True when nothing was quarantined."""
        return not self.errors

    @property
    def coverage(self) -> float:
        """Fraction of rows successfully ingested (1.0 for empty files)."""
        if self.n_rows == 0:
            return 1.0
        return self.n_ok / self.n_rows

    @property
    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for error in self.errors:
            counts[error.kind.value] = counts.get(error.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def merge(self, other: "IngestReport") -> "IngestReport":
        """Combine two file reports into one (paths joined with ``+``)."""
        return IngestReport(
            path=f"{self.path}+{other.path}" if self.path and other.path
            else (self.path or other.path),
            n_rows=self.n_rows + other.n_rows,
            n_ok=self.n_ok + other.n_ok,
            errors=[*self.errors, *other.errors],
        )


def _located(exc: BaseException, path: str, line_no: int) -> BaseException:
    """The same error, re-raised with its file location attached."""
    where = f"[{path}:{line_no}]"
    if isinstance(exc, json.JSONDecodeError):
        return json.JSONDecodeError(f"{exc.msg} {where}", exc.doc, exc.pos)
    if isinstance(exc, UnicodeDecodeError):
        return UnicodeDecodeError(
            exc.encoding, exc.object, exc.start, exc.end, f"{exc.reason} {where}"
        )
    if isinstance(exc, KeyError):
        missing = exc.args[0] if exc.args else "?"
        return KeyError(f"missing field {missing!r} {where}")
    return type(exc)(f"{exc} {where}")


def _iter_lines(path: PathLike) -> Iterator[Tuple[int, bytes]]:
    """(line_no, stripped line) for every non-blank line of a file.

    Lines stay bytes until :func:`_parse_line`, so a line that is not
    UTF-8 fails alone, as a line that is not JSON does.
    """
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line:
                yield line_no, line


def _parse_line(line: bytes) -> Any:
    """One line's JSON value.  The line is decoded as UTF-8 first:
    ``json.loads`` of bytes guesses the encoding, and would read a line
    starting ``\\xff\\xfe`` as UTF-16."""
    return json.loads(line.decode("utf-8"))


def _excerpt(line: bytes) -> str:
    return line.decode("utf-8", "replace")[:_EXCERPT_CHARS]


def write_jsonl(path: PathLike, rows: Iterable[Dict]) -> int:
    """Write dict rows to a JSONL file; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> Iterator[Dict]:
    """Yield dict rows from a JSONL file, skipping blank lines.

    Strict: a malformed line raises ``json.JSONDecodeError`` with the
    file and line number appended to the message.
    """
    for line_no, line in _iter_lines(path):
        try:
            yield _parse_line(line)
        except _PARSE_ERRORS as exc:
            raise _located(exc, str(path), line_no) from exc


def ingest_jsonl(
    path: PathLike, lenient: bool = False
) -> Tuple[List[Dict], IngestReport]:
    """Read raw dict rows with a report (parse-level taxonomy only)."""
    return _ingest(path, _as_is, _as_is, lenient)


def _as_is(row: Any) -> Any:
    return row


def ingest_row(
    row: Any, decode: Callable[[Any], F], accept: Callable[[F], None]
) -> Optional[Tuple[IngestErrorKind, Exception]]:
    """Decode one row and hand its fields to ``accept``; the rejection, if any.

    The two stages separate the taxonomy: ``decode`` failures are
    *schema* errors; ``accept`` runs the record's invariant check (a
    dataclass constructor or a column appender), where a ``ValueError``
    is *semantic* and a ``TypeError`` or ``AttributeError`` — a
    wrongly-typed value that slipped past coercion — is still *schema*.
    """
    try:
        fields = decode(row)
    except _DECODE_ERRORS as exc:
        return IngestErrorKind.SCHEMA, exc
    try:
        accept(fields)
    except ValueError as exc:
        return IngestErrorKind.SEMANTIC, exc
    except (TypeError, AttributeError) as exc:
        return IngestErrorKind.SCHEMA, exc
    return None


def _integer(value: Any) -> int:
    """``int(value)``, refusing a float with a fraction, which ``int``
    would truncate; an integral float and a numeric string convert."""
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _enum_index(index: Mapping[str, int], enum_type: Type[Enum], value: Any) -> int:
    """``value``'s canonical index, read from its value -> index table.

    A value missing from the table (or unhashable) goes through the enum
    constructor, whose ``ValueError`` names it (``'9G' is not a valid
    RadioInterface``).
    """
    try:
        return index[value]
    except (KeyError, TypeError):
        return index[enum_type(value).value]


def _ingest(
    path: PathLike,
    decode: Callable[[Any], F],
    build: Callable[[F], R],
    lenient: bool,
) -> Tuple[List[R], IngestReport]:
    """The shared strict/lenient codec read loop.

    Each line is parsed as UTF-8 JSON (a failure is a *parse* error),
    then classified by :func:`ingest_row`: ``decode`` extracts the
    fields and ``build`` turns them into a record, running its invariant
    check.
    """
    report = IngestReport(path=str(path))
    records: List[R] = []

    def accept(fields: F) -> None:
        records.append(build(fields))

    for line_no, line in _iter_lines(path):
        report.n_rows += 1
        try:
            row = _parse_line(line)
        except _PARSE_ERRORS as exc:
            if not lenient:
                raise _located(exc, report.path, line_no) from exc
            report.errors.append(
                IngestError(
                    path=report.path,
                    line_no=line_no,
                    kind=IngestErrorKind.PARSE,
                    message=exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc),
                    excerpt=_excerpt(line),
                )
            )
            continue
        rejected = ingest_row(row, decode, accept)
        if rejected is None:
            report.n_ok += 1
            continue
        kind, exc = rejected
        if not lenient:
            raise _located(exc, report.path, line_no) from exc
        report.errors.append(
            IngestError(
                path=report.path,
                line_no=line_no,
                kind=kind,
                message=str(exc),
                excerpt=_excerpt(line),
            )
        )
    return records, report


# -- SignalingTransaction ----------------------------------------------------

def transaction_to_dict(txn: SignalingTransaction) -> Dict:
    """Flatten a SignalingTransaction into a JSON-ready dict."""
    return {
        "device_id": txn.device_id,
        "ts": txn.timestamp,
        "sim_plmn": txn.sim_plmn,
        "visited_plmn": txn.visited_plmn,
        "type": txn.message_type.value,
        "result": txn.result.value,
    }


def _transaction_fields(row: Dict) -> Dict[str, Any]:
    return {
        "device_id": row["device_id"],
        "timestamp": float(row["ts"]),
        "sim_plmn": row["sim_plmn"],
        "visited_plmn": row["visited_plmn"],
        "message_type": MessageType(row["type"]),
        "result": ResultCode(row["result"]),
    }


def transaction_from_dict(row: Dict) -> SignalingTransaction:
    """Rebuild a SignalingTransaction from its dict form."""
    return SignalingTransaction(**_transaction_fields(row))


def write_transactions(path: PathLike, txns: Iterable[SignalingTransaction]) -> int:
    """Write transactions as JSONL; returns the row count."""
    return write_jsonl(path, (transaction_to_dict(t) for t in txns))


def ingest_transactions(
    path: PathLike, lenient: bool = False
) -> Tuple[List[SignalingTransaction], IngestReport]:
    """Read transactions; lenient mode quarantines bad rows."""
    return _ingest(
        path, _transaction_fields, lambda fields: SignalingTransaction(**fields), lenient
    )


def read_transactions(path: PathLike) -> List[SignalingTransaction]:
    """Read a JSONL file of transactions (strict)."""
    return ingest_transactions(path)[0]


# -- RadioEvent ---------------------------------------------------------------

def radio_event_to_dict(event: RadioEvent) -> Dict:
    """Flatten a RadioEvent into a JSON-ready dict."""
    return {
        "device_id": event.device_id,
        "ts": event.timestamp,
        "sim_plmn": event.sim_plmn,
        "tac": event.tac,
        "sector": event.sector_id,
        "iface": event.interface.value,
        "type": event.event_type.value,
        "result": event.result.value,
    }


def decode_radio_row(row: Dict) -> RadioFields:
    """A radio row's fields in :class:`RadioEvent` order, enums as indices.

    Fields are read in that order, so a row with several bad fields
    reports its first.  Every error it raises is *schema*, a fractional
    TAC or sector among them; the values are checked by
    :func:`repro.signaling.events.check_radio_event`.
    """
    return (
        row["device_id"],
        float(row["ts"]),
        row["sim_plmn"],
        _integer(row["tac"]),
        _integer(row["sector"]),
        _enum_index(INTERFACE_INDEX, RadioInterface, row["iface"]),
        _enum_index(MESSAGE_INDEX, MessageType, row["type"]),
        _enum_index(RESULT_INDEX, ResultCode, row["result"]),
    )


_RADIO_KEYS = itemgetter(
    "device_id", "ts", "sim_plmn", "tac", "sector", "iface", "type", "result"
)


def decode_radio_columns(rows: Sequence[Dict]) -> RadioColumns:
    """The radio rows' fields by column, in :class:`RadioEvent` order.

    The batch form of :func:`decode_radio_row`, for a batch that decodes
    whole: each field of every row is read in one pass, numbers convert
    straight into typed arrays and enums read their value -> index
    tables (each index fits a byte).  A value that decodes decodes to
    what the row decoder gives, but more raises: a string number, a
    float TAC or sector, an enum value only its constructor takes.
    Every error it raises is *schema*; the values are checked by
    :func:`repro.columnar.store.check_stores`, through
    :func:`repro.columnar.store.from_field_columns`.
    """
    device_ids, timestamps, sim_plmns, tacs, sectors, interfaces, event_types, results = (
        tuple(zip(*map(_RADIO_KEYS, rows))) or ((),) * 8
    )
    return (
        device_ids,
        array("d", timestamps),
        sim_plmns,
        array("q", tacs),
        array("q", sectors),
        array("b", bytes(map(INTERFACE_INDEX.__getitem__, interfaces))),
        array("b", bytes(map(MESSAGE_INDEX.__getitem__, event_types))),
        array("b", bytes(map(RESULT_INDEX.__getitem__, results))),
    )


def _radio_event(fields: RadioFields) -> RadioEvent:
    device_id, timestamp, sim_plmn, tac, sector_id, interface, event_type, result = fields
    return RadioEvent(
        device_id, timestamp, sim_plmn, tac, sector_id,
        RADIO_INTERFACES[interface], MESSAGE_TYPES[event_type], RESULT_CODES[result],
    )


def radio_event_from_dict(row: Dict) -> RadioEvent:
    """Rebuild a RadioEvent from its dict form."""
    return _radio_event(decode_radio_row(row))


def write_radio_events(path: PathLike, events: Iterable[RadioEvent]) -> int:
    """Write radio events as JSONL; returns the row count."""
    return write_jsonl(path, (radio_event_to_dict(e) for e in events))


def ingest_radio_events(
    path: PathLike, lenient: bool = False
) -> Tuple[List[RadioEvent], IngestReport]:
    """Read radio events; lenient mode quarantines bad rows."""
    return _ingest(path, decode_radio_row, _radio_event, lenient)


def read_radio_events(path: PathLike) -> List[RadioEvent]:
    """Read a JSONL file of radio events (strict)."""
    return ingest_radio_events(path)[0]


# -- ServiceRecord --------------------------------------------------------------

def service_record_to_dict(record: ServiceRecord) -> Dict:
    """Flatten a ServiceRecord into a JSON-ready dict."""
    return {
        "device_id": record.device_id,
        "ts": record.timestamp,
        "sim_plmn": record.sim_plmn,
        "visited_plmn": record.visited_plmn,
        "service": record.service.value,
        "duration_s": record.duration_s,
        "bytes": record.bytes_total,
        "apn": record.apn,
    }


def decode_service_row(row: Dict) -> ServiceFields:
    """A service row's fields in :class:`ServiceRecord` order, service as index.

    Like :func:`decode_radio_row` (a fractional byte count is *schema*);
    the values are checked by
    :func:`repro.signaling.cdr.check_service_record`.
    """
    return (
        row["device_id"],
        float(row["ts"]),
        row["sim_plmn"],
        row["visited_plmn"],
        _enum_index(SERVICE_INDEX, ServiceType, row["service"]),
        float(row["duration_s"]),
        _integer(row["bytes"]),
        row.get("apn"),
    )


_SERVICE_KEYS = itemgetter(
    "device_id", "ts", "sim_plmn", "visited_plmn", "service", "duration_s", "bytes"
)


def decode_service_columns(rows: Sequence[Dict]) -> ServiceColumns:
    """The service rows' fields by column, in :class:`ServiceRecord` order.

    Like :func:`decode_radio_columns`; the APN is read with
    ``row.get``, as :func:`decode_service_row` reads it.
    """
    device_ids, timestamps, sim_plmns, visited_plmns, services, durations, bytes_totals = (
        tuple(zip(*map(_SERVICE_KEYS, rows))) or ((),) * 7
    )
    return (
        device_ids,
        array("d", timestamps),
        sim_plmns,
        visited_plmns,
        array("b", bytes(map(SERVICE_INDEX.__getitem__, services))),
        array("d", durations),
        array("q", bytes_totals),
        [row.get("apn") for row in rows],
    )


def _service_record(fields: ServiceFields) -> ServiceRecord:
    device_id, timestamp, sim_plmn, visited_plmn, service, duration_s, bytes_total, apn = fields
    return ServiceRecord(
        device_id, timestamp, sim_plmn, visited_plmn,
        SERVICE_TYPES[service], duration_s, bytes_total, apn,
    )


def service_record_from_dict(row: Dict) -> ServiceRecord:
    """Rebuild a ServiceRecord from its dict form."""
    return _service_record(decode_service_row(row))


def write_service_records(path: PathLike, records: Iterable[ServiceRecord]) -> int:
    """Write service records as JSONL; returns the row count."""
    return write_jsonl(path, (service_record_to_dict(r) for r in records))


def ingest_service_records(
    path: PathLike, lenient: bool = False
) -> Tuple[List[ServiceRecord], IngestReport]:
    """Read service records; lenient mode quarantines bad rows."""
    return _ingest(path, decode_service_row, _service_record, lenient)


def read_service_records(path: PathLike) -> List[ServiceRecord]:
    """Read a JSONL file of service records (strict)."""
    return ingest_service_records(path)[0]
