"""Struct-of-arrays event storage with string interning.

Record rows are frozen dataclasses, one per event, that re-hash the same
handful of strings (device IDs, PLMNs, APNs) millions of times.  This
module is the pipeline's data plane instead: each record stream becomes
a bundle of parallel ``array`` columns — numeric fields stored unboxed,
string fields dictionary-encoded as integer ids into a shared
:class:`StringPool`.  Scans touch flat C buffers and compare small ints;
the catalog kernel (:meth:`repro.core.catalog.CatalogBuilder.
build_from_columns`) runs on these columns directly.

Layout notes:

- Each store declares its columns once, as ``(name, typecode)`` pairs in
  block order (``COLUMNS``).  Its slots, an empty store, ``select``,
  ``len``, ``nbytes``, ``repr``, the block codec
  (:mod:`repro.columnar.blocks`) and the simulator's preallocation read
  that declaration; ``from_rows``, ``_filled`` and ``rows_at`` give each
  field its meaning.
- ``day`` is derived from the timestamp (``ts // 86400``) but cached as
  its own column at ingest — the catalog groups by day on every scan, so
  paying the division once per row at append time removes it from every
  subsequent scan.
- Enum-valued fields (interface, message type, result code, service
  type) are stored as indices into the canonical append-only orders
  exported by :mod:`repro.signaling` (``RADIO_INTERFACES``,
  ``MESSAGE_TYPES``, ``RESULT_CODES``, ``SERVICE_TYPES``).
- TACs are already numeric in the row schema and need no interning; they
  are stored as a plain integer column.
- ``from_rows``/``to_rows`` round-trip exactly, so row-oriented
  boundaries (file ingest, fault injection, codecs, query responses)
  convert losslessly; ``select`` slices a store by row index while
  sharing the pools (one numpy gather per column), which is how the
  sharded executor exchanges interned column blocks and the daemon and
  the durable fold split a multi-day delta (:func:`split_by_day`).
  :func:`select_own_pools` gathers rows onto pools of their own instead,
  equal to interning those rows: a durable run's ``(day, shard)`` units.
  ``from_rows`` fills a store column by column, one pool lookup per
  distinct string, and assigns ids in the order a row-by-row encoding
  would.
- :func:`check_stores` holds a store pair on pools of its own to the
  record invariants the row dataclasses check one row at a time
  (:func:`~repro.signaling.events.check_radio_event`,
  :func:`~repro.signaling.cdr.check_service_record`): the numbers in
  numpy over whole columns, the strings once per pool entry.  Stores
  built without the row checks pass it before use: the MNO simulator's,
  and a wire batch decoded by column (:func:`from_field_columns`, see
  :func:`repro.datasets.io.decode_radio_columns`).
- The MNO simulator emits stores directly, not rows.  Its dataset hands
  them to row consumers as :class:`RowSequence` views: counting rows
  reads the columns, and the rows are built once, on first access.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    overload,
)

import numpy as np

from repro.signaling.cdr import SERVICE_TYPES, ServiceRecord, ServiceType
from repro.signaling.events import RADIO_INTERFACES, RadioEvent
from repro.signaling.procedures import MESSAGE_TYPES, RESULT_CODES

#: Sentinel id for a NULL string (e.g. a voice CDR's absent APN).
NULL_ID = -1

#: A column buffer.
Column = Union["array[int]", "array[float]"]

#: Wire value -> canonical index for each enum column.  The enums are
#: ``str`` enums, so a member looks up the same entry as its value.
INTERFACE_INDEX = {member.value: index for index, member in enumerate(RADIO_INTERFACES)}
MESSAGE_INDEX = {member.value: index for index, member in enumerate(MESSAGE_TYPES)}
RESULT_INDEX = {member.value: index for index, member in enumerate(RESULT_CODES)}
SERVICE_INDEX = {member.value: index for index, member in enumerate(SERVICE_TYPES)}

#: The same tables keyed by member, for encoding rows: a row's member
#: then matches its key by identity instead of by string comparison.
_INTERFACE_OF = {member: index for index, member in enumerate(RADIO_INTERFACES)}
_MESSAGE_OF = {member: index for index, member in enumerate(MESSAGE_TYPES)}
_RESULT_OF = {member: index for index, member in enumerate(RESULT_CODES)}
_SERVICE_OF = {member: index for index, member in enumerate(SERVICE_TYPES)}

#: A decoded radio row (:func:`repro.datasets.io.decode_radio_row`):
#: :class:`RadioEvent`'s fields in order, the enums as canonical indices.
RadioFields = Tuple[str, float, str, int, int, int, int, int]

#: A decoded service row (:func:`repro.datasets.io.decode_service_row`):
#: :class:`ServiceRecord`'s fields in order, the service as its index.
ServiceFields = Tuple[str, float, str, str, int, float, int, Optional[str]]

#: Radio rows decoded by column (:func:`repro.datasets.io.
#: decode_radio_columns`): :data:`RadioFields` one column each, the
#: strings as read and the rest as typed arrays.
RadioColumns = Tuple[
    Sequence[Any], "array[float]", Sequence[Any], "array[int]", "array[int]",
    "array[int]", "array[int]", "array[int]",
]

#: Service rows decoded by column, like :data:`RadioColumns`.
ServiceColumns = Tuple[
    Sequence[Any], "array[float]", Sequence[Any], Sequence[Any], "array[int]",
    "array[float]", "array[int]", Sequence[Any],
]

#: Row positions to gather: a sequence of ints or an integer ndarray.
Indices = Union[Sequence[int], np.ndarray]


class StringPool:
    """Interning dictionary: string -> dense int id, first-seen order.

    Ids are assigned sequentially from 0 in interning order and are
    never reassigned, so any id handed out stays valid for the pool's
    lifetime.  Interning is idempotent: the same string always returns
    the same id.
    """

    __slots__ = ("_ids", "_strings")

    def __init__(self, strings: Optional[Iterable[str]] = None) -> None:
        # Interning ``strings`` in turn keeps the first of any repeat.
        self._strings: List[str] = [] if strings is None else list(dict.fromkeys(strings))
        self._ids: Dict[str, int] = {text: i for i, text in enumerate(self._strings)}

    def intern(self, text: str) -> int:
        """Id for ``text``, assigning the next dense id on first sight."""
        ids = self._ids
        hit = ids.get(text)
        if hit is not None:
            return hit
        new_id = len(self._strings)
        ids[text] = new_id
        self._strings.append(text)
        return new_id

    def intern_optional(self, text: Optional[str]) -> int:
        """Like :meth:`intern`, mapping None to :data:`NULL_ID`."""
        return NULL_ID if text is None else self.intern(text)

    def id_of(self, text: str) -> int:
        """Id of an already-interned string (KeyError when absent)."""
        return self._ids[text]

    def lookup(self, string_id: int) -> str:
        """The string behind ``string_id`` (IndexError when unknown)."""
        return self._strings[string_id]

    def lookup_optional(self, string_id: int) -> Optional[str]:
        """Like :meth:`lookup`, mapping :data:`NULL_ID` back to None."""
        return None if string_id == NULL_ID else self._strings[string_id]

    @property
    def strings(self) -> Tuple[str, ...]:
        """Every interned string, in id order."""
        return tuple(self._strings)

    def __contains__(self, text: object) -> bool:
        return text in self._ids

    def __len__(self) -> int:
        return len(self._strings)

    def __repr__(self) -> str:
        return f"StringPool({len(self)} strings)"


@dataclass
class ColumnPools:
    """The interning dictionaries one columnar dataset shares.

    One pool per string domain: device IDs, PLMNs (SIM and visited share
    a vocabulary), and APNs.  TACs are numeric end to end and never pass
    through a pool.
    """

    devices: StringPool = field(default_factory=StringPool)
    plmns: StringPool = field(default_factory=StringPool)
    apns: StringPool = field(default_factory=StringPool)


#: Row fields ``from_rows`` reads one column at a time.
_DEVICE_ID = attrgetter("device_id")
_TIMESTAMP = attrgetter("timestamp")
_SIM_PLMN = attrgetter("sim_plmn")
_VISITED_PLMN = attrgetter("visited_plmn")
_TAC = attrgetter("tac")
_SECTOR_ID = attrgetter("sector_id")
_DURATION = attrgetter("duration_s")
_BYTES_TOTAL = attrgetter("bytes_total")
_APN = attrgetter("apn")


def _interned(pool: StringPool, *columns: Sequence[Optional[str]]) -> List["array[int]"]:
    """The id columns of ``columns`` (None to :data:`NULL_ID`), one
    lookup per distinct text: new strings get ids in order of first
    sight, row by row, as one :meth:`StringPool.intern_optional` call
    per field would."""
    texts: Iterable[Optional[str]] = (
        columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns))
    )
    table = {text: pool.intern_optional(text) for text in dict.fromkeys(texts)}
    return [array("q", list(map(table.__getitem__, column))) for column in columns]


def _view(column: Column) -> np.ndarray:
    """A column as a numpy view of its buffer (no copy)."""
    return np.frombuffer(column, dtype=column.typecode)


def _days_of(timestamps: Column) -> "array[int]":
    """The day column of ``timestamps``: numpy's float floor division
    rounds as ``int(timestamp // 86400.0)`` does.  A timestamp no int64
    day holds (NaN, infinite or too late, which :func:`check_stores`
    refuses) gets an arbitrary day, without a warning."""
    with np.errstate(invalid="ignore"):
        days = (_view(timestamps) // 86400.0).astype(np.int64)
    return array("q", days.tobytes())


def _first_seen(ids: np.ndarray, bound: int) -> np.ndarray:
    """The distinct values of ``ids``, all in [0, ``bound``), in order of
    first occurrence: one pass over ``ids``, no sort of them."""
    first = np.full(bound, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    seen = np.flatnonzero(first < len(ids))
    return seen[np.argsort(first[seen])]


def _taken(values: np.ndarray, positions: np.ndarray, typecode: str) -> array:
    """``values[positions]`` as a new ``typecode`` column, gathered by
    one ``take`` straight into the column's buffer.

    The positions must be in range; a negative one counts from the end.
    (``take`` writes into ``out`` unbuffered only in its ``wrap`` and
    ``clip`` modes, which wrap or clip where indexing would raise.)
    """
    column = array(typecode, [0]) * len(positions)
    values.take(positions, out=np.frombuffer(column, dtype=typecode), mode="wrap")
    return column


Row = TypeVar("Row", RadioEvent, ServiceRecord)

#: Either column store.
_Store = TypeVar("_Store", bound="_ColumnStore[Any]")


class _ColumnStore(Generic[Row]):
    """What a column store's schema alone decides.

    A store declares :attr:`COLUMNS`, its ``(name, typecode)`` columns
    in block order, and takes its ``__slots__`` from it; this base holds
    the pools and reads the schema to build an empty store, ``select``,
    count and size the rows and ``repr``.  The store itself gives each
    field its meaning: ``from_rows``, ``_filled`` and ``rows_at``.
    """

    __slots__ = ("pools",)

    #: ``(name, typecode)`` of each column, in block order.
    COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = ()

    if TYPE_CHECKING:
        # Each column is a slot the schema names.
        def __getattr__(self, name: str) -> Any:
            ...

        def __setattr__(self, name: str, value: Any) -> None:
            ...

    def __init__(self, pools: Optional[ColumnPools] = None) -> None:
        self.pools = pools if pools is not None else ColumnPools()
        for name, typecode in self.COLUMNS:
            setattr(self, name, array(typecode))

    def rows_at(self, indices: Iterable[int]) -> List[Row]:
        """Materialize the rows at ``indices``, in the given order."""
        raise NotImplementedError

    def to_rows(self) -> List[Row]:
        """Materialize every row, in storage order (exact round-trip)."""
        return self.rows_at(range(len(self)))

    def select(self: _Store, indices: Indices) -> _Store:
        """A new store holding the rows at ``indices``, sharing pools.

        An index out of range raises ``IndexError``, and a negative one
        counts from the end, as indexing does.
        """
        positions = np.asarray(indices, dtype=np.intp)
        n_rows = len(self)
        if len(positions) and not -n_rows <= positions.min() <= positions.max() < n_rows:
            raise IndexError(f"row index out of range for {n_rows} rows")
        out = type(self)(self.pools)
        for name, typecode in self.COLUMNS:
            setattr(out, name, _taken(_view(getattr(self, name)), positions, typecode))
        return out

    def __len__(self) -> int:
        # Every column holds one entry per row.
        return len(getattr(self, self.COLUMNS[0][0]))

    @property
    def nbytes(self) -> int:
        """Total column buffer size in bytes (excludes the pools)."""
        columns = [getattr(self, name) for name, _ in self.COLUMNS]
        return sum(len(column) * column.itemsize for column in columns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows, {self.nbytes} column bytes)"


class ColumnarRadioEvents(_ColumnStore[RadioEvent]):
    """Struct-of-arrays storage for :class:`RadioEvent` streams.

    Columns (parallel, one entry per event): ``device_ids`` /
    ``sim_plmns`` interned, ``timestamps`` / ``days`` / ``tacs`` /
    ``sector_ids`` numeric, ``interfaces`` / ``event_types`` /
    ``results`` enum indices.
    """

    COLUMNS = (
        ("device_ids", "q"),
        ("timestamps", "d"),
        ("days", "q"),
        ("sim_plmns", "q"),
        ("tacs", "q"),
        ("sector_ids", "q"),
        ("interfaces", "b"),
        ("event_types", "b"),
        ("results", "b"),
    )
    __slots__ = tuple(name for name, _ in COLUMNS)

    @classmethod
    def from_rows(
        cls,
        events: Iterable[RadioEvent],
        pools: Optional[ColumnPools] = None,
    ) -> "ColumnarRadioEvents":
        """Encode a row stream (preserving order) into a new store.

        Filled column by column; each pool still assigns its ids in
        order of first sight, row by row and field by field.
        """
        rows = list(events)
        return cls(pools)._filled((
            list(map(_DEVICE_ID, rows)),
            array("d", list(map(_TIMESTAMP, rows))),
            list(map(_SIM_PLMN, rows)),
            array("q", list(map(_TAC, rows))),
            array("q", list(map(_SECTOR_ID, rows))),
            array("b", [_INTERFACE_OF[e.interface] for e in rows]),
            array("b", [_MESSAGE_OF[e.event_type] for e in rows]),
            array("b", [_RESULT_OF[e.result] for e in rows]),
        ))

    def _filled(self, columns: RadioColumns) -> "ColumnarRadioEvents":
        """This empty store holding the field columns: the strings
        interned in row order, the arrays taken as they are."""
        (
            device_ids, timestamps, sim_plmns, tacs,
            sector_ids, interfaces, event_types, results,
        ) = columns
        pools = self.pools
        (self.device_ids,) = _interned(pools.devices, device_ids)
        self.timestamps = timestamps
        self.days = _days_of(timestamps)
        (self.sim_plmns,) = _interned(pools.plmns, sim_plmns)
        self.tacs = tacs
        self.sector_ids = sector_ids
        self.interfaces = interfaces
        self.event_types = event_types
        self.results = results
        return self

    def rows_at(self, indices: Iterable[int]) -> List[RadioEvent]:
        """Materialize the rows at ``indices``, in the given order.

        Batched: pool string tables and column buffers are hoisted into
        locals once, so each row costs one dataclass construction plus
        plain list indexing — no per-row method dispatch or pool lookup.
        """
        devices = self.pools.devices._strings
        plmns = self.pools.plmns._strings
        device_ids = self.device_ids
        timestamps = self.timestamps
        sim_plmns = self.sim_plmns
        tacs = self.tacs
        sector_ids = self.sector_ids
        interfaces = self.interfaces
        event_types = self.event_types
        results = self.results
        return [
            RadioEvent(
                device_id=devices[device_ids[i]],
                timestamp=timestamps[i],
                sim_plmn=plmns[sim_plmns[i]],
                tac=tacs[i],
                sector_id=sector_ids[i],
                interface=RADIO_INTERFACES[interfaces[i]],
                event_type=MESSAGE_TYPES[event_types[i]],
                result=RESULT_CODES[results[i]],
            )
            for i in indices
        ]


class ColumnarServiceRecords(_ColumnStore[ServiceRecord]):
    """Struct-of-arrays storage for :class:`ServiceRecord` streams.

    ``apns`` uses :data:`NULL_ID` for voice CDRs (which carry no APN);
    ``services`` indexes the canonical ``SERVICE_TYPES`` order.
    """

    COLUMNS = (
        ("device_ids", "q"),
        ("timestamps", "d"),
        ("days", "q"),
        ("sim_plmns", "q"),
        ("visited_plmns", "q"),
        ("services", "b"),
        ("durations", "d"),
        ("bytes_totals", "q"),
        ("apns", "q"),
    )
    __slots__ = tuple(name for name, _ in COLUMNS)

    @classmethod
    def from_rows(
        cls,
        records: Iterable[ServiceRecord],
        pools: Optional[ColumnPools] = None,
    ) -> "ColumnarServiceRecords":
        """Encode a row stream (preserving order) into a new store.

        Filled column by column, like
        :meth:`ColumnarRadioEvents.from_rows`.
        """
        rows = list(records)
        return cls(pools)._filled((
            list(map(_DEVICE_ID, rows)),
            array("d", list(map(_TIMESTAMP, rows))),
            list(map(_SIM_PLMN, rows)),
            list(map(_VISITED_PLMN, rows)),
            array("b", [_SERVICE_OF[r.service] for r in rows]),
            array("d", list(map(_DURATION, rows))),
            array("q", list(map(_BYTES_TOTAL, rows))),
            list(map(_APN, rows)),
        ))

    def _filled(self, columns: ServiceColumns) -> "ColumnarServiceRecords":
        """Like :meth:`ColumnarRadioEvents._filled`; each row's SIM and
        visited network are interned in turn."""
        (
            device_ids, timestamps, sim_plmns, visited_plmns,
            services, durations, bytes_totals, apns,
        ) = columns
        pools = self.pools
        (self.device_ids,) = _interned(pools.devices, device_ids)
        self.timestamps = timestamps
        self.days = _days_of(timestamps)
        self.sim_plmns, self.visited_plmns = _interned(pools.plmns, sim_plmns, visited_plmns)
        self.services = services
        self.durations = durations
        self.bytes_totals = bytes_totals
        (self.apns,) = _interned(pools.apns, apns)
        return self

    def rows_at(self, indices: Iterable[int]) -> List[ServiceRecord]:
        """Materialize the rows at ``indices``, in the given order.

        Batched like :meth:`ColumnarRadioEvents.rows_at`: one dataclass
        construction per row over hoisted locals.  The APN null check
        stays inline (``NULL_ID`` maps back to None).
        """
        devices = self.pools.devices._strings
        plmns = self.pools.plmns._strings
        apn_strings = self.pools.apns._strings
        device_ids = self.device_ids
        timestamps = self.timestamps
        sim_plmns = self.sim_plmns
        visited_plmns = self.visited_plmns
        services = self.services
        durations = self.durations
        bytes_totals = self.bytes_totals
        apns = self.apns
        return [
            ServiceRecord(
                device_id=devices[device_ids[i]],
                timestamp=timestamps[i],
                sim_plmn=plmns[sim_plmns[i]],
                visited_plmn=plmns[visited_plmns[i]],
                service=SERVICE_TYPES[services[i]],
                duration_s=durations[i],
                bytes_total=bytes_totals[i],
                apn=None if apns[i] == NULL_ID else apn_strings[apns[i]],
            )
            for i in indices
        ]


def from_record_streams(
    radio_events: Iterable[RadioEvent],
    service_records: Iterable[ServiceRecord],
    pools: Optional[ColumnPools] = None,
) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords]:
    """Encode both MNO record streams against one shared pool set."""
    shared = pools if pools is not None else ColumnPools()
    events = ColumnarRadioEvents.from_rows(radio_events, shared)
    records = ColumnarServiceRecords.from_rows(service_records, shared)
    return events, records


#: A float day at or past this is beyond the int64 ``days`` column
#: (``INT64_MAX`` itself rounds to it as a float).
_DAY_LIMIT = 2.0**63

_VOICE = _SERVICE_OF[ServiceType.VOICE]
_DATA = _SERVICE_OF[ServiceType.DATA]


def _first(values: np.ndarray, where: np.ndarray) -> Any:
    """The first of ``values`` where ``where`` holds, as a Python number."""
    return values[where][0].item()


def _check_not_negative(values: np.ndarray, message: str) -> None:
    negative = values < 0
    if negative.any():
        raise ValueError(f"{message} {_first(values, negative)}")


def _check_timestamps(timestamps: np.ndarray) -> None:
    """:func:`~repro.signaling.procedures.check_timestamp` over a column;
    finiteness first, since floor division warns on NaN or infinity."""
    finite = np.isfinite(timestamps)
    if not finite.all():
        raise ValueError(f"non-finite timestamp {_first(timestamps, ~finite)}")
    late = timestamps // 86400.0 >= _DAY_LIMIT
    if late.any():
        raise ValueError(f"timestamp {_first(timestamps, late)} is past the last int64 day")


def _check_strings(pool: StringPool, message: str, *id_columns: Column) -> None:
    """``TypeError(message.format(value))`` for the first pool entry
    that is not a string, or for None when a row of ``id_columns`` holds
    :data:`NULL_ID` (interning maps None to it in every column)."""
    if any((_view(ids) == NULL_ID).any() for ids in id_columns):
        raise TypeError(message.format(None))
    for text in pool._strings:
        if not isinstance(text, str):
            raise TypeError(message.format(text))


def _check_plmns(pool: StringPool, labeled: Sequence[Tuple[str, Column]]) -> None:
    """Every PLMN a row names is a string of 5-6 digits, checked once
    per pool entry; a failure names the first labeled column holding it."""
    bad = np.array(
        [not (isinstance(plmn, str) and plmn.isdigit() and len(plmn) in (5, 6))
         for plmn in pool._strings],
        dtype=bool,
    )
    for label, column in labeled:
        ids = _view(column)
        if (ids == NULL_ID).any():
            raise TypeError(f"{label} PLMN must be a string, got None")
        if bad.any() and bad[ids].any():
            plmn = pool.lookup(_first(ids, bad[ids]))
            if not isinstance(plmn, str):
                raise TypeError(f"{label} PLMN must be a string, got {plmn!r}")
            raise ValueError(f"{label} PLMN must be 5-6 digits, got {plmn!r}")


def check_stores(events: ColumnarRadioEvents, records: ColumnarServiceRecords) -> None:
    """Raise what the row checks raise, over a store pair's rows.

    The whole-store form of
    :func:`~repro.signaling.events.check_radio_event` and
    :func:`~repro.signaling.cdr.check_service_record`, for stores built
    without them: the numbers in numpy over whole columns, the strings
    once per pool entry.  The invariants run in an order both row checks
    keep, so a pair with one bad row raises that row's ``ValueError`` or
    ``TypeError`` with its message (a PLMN that is not a string raises
    ``TypeError``, where the row check's ``isdigit`` call raises
    ``AttributeError``).  The int64 bounds of sector ids and byte counts
    are the columns' own.  The pools must be the pair's own, as
    interning its rows leaves them: every device id and APN entry is
    checked, whichever rows use it.
    """
    pools = events.pools
    if records.pools is not pools:
        raise ValueError("columnar streams must share one ColumnPools")
    timestamps = (_view(events.timestamps), _view(records.timestamps))
    for column in timestamps:
        _check_not_negative(column, "negative timestamp")
    _check_plmns(pools.plmns, (
        ("SIM", events.sim_plmns),
        ("sim", records.sim_plmns),
        ("visited", records.visited_plmns),
    ))
    tacs = _view(events.tacs)
    wrong = (tacs < 0) | (tacs >= 10**8)
    if wrong.any():
        raise ValueError(f"TAC must be 8 digits, got {_first(tacs, wrong)}")
    durations = _view(records.durations)
    _check_not_negative(durations, "negative duration")
    _check_not_negative(_view(records.bytes_totals), "negative byte count")
    services = _view(records.services)
    if (_view(records.apns)[services == _VOICE] != NULL_ID).any():
        raise ValueError("voice CDRs carry no APN")
    if np.count_nonzero(durations[services == _DATA]):
        # Data usage is accounted in bytes; duration belongs to voice.
        raise ValueError("data xDRs carry bytes, not call duration")
    _check_strings(
        pools.devices, "device id must be a string, got {!r}",
        events.device_ids, records.device_ids,
    )
    for column in timestamps:
        _check_timestamps(column)
    finite = np.isfinite(durations)
    if not finite.all():
        raise ValueError(f"non-finite duration {_first(durations, ~finite)}")
    _check_strings(pools.apns, "APN must be a string or null, got {!r}")


def from_field_columns(
    radio: RadioColumns, service: ServiceColumns
) -> Optional[Tuple[ColumnarRadioEvents, ColumnarServiceRecords]]:
    """A batch's field columns as a checked store pair on fresh pools.

    The columns are interned in the order :func:`from_record_streams`
    interns, radio rows first, then held to :func:`check_stores`.  None
    when any row fails its check, or a string column holds a value that
    cannot be interned (an unhashable one).  It reports no error: the
    caller takes a refused batch row by row, where each rejection is
    named.
    """
    pools = ColumnPools()
    try:
        stores = (
            ColumnarRadioEvents(pools)._filled(radio),
            ColumnarServiceRecords(pools)._filled(service),
        )
        check_stores(*stores)
    except (TypeError, ValueError):
        return None
    return stores


def _own_pool(pool: StringPool, *ids: np.ndarray) -> Tuple[StringPool, np.ndarray]:
    """A fresh pool of the strings ``ids`` name, in order of first
    occurrence over ``ids`` in turn, and the table that maps each of
    ``pool``'s ids to its new id (the extra last slot maps
    :data:`NULL_ID` to itself).  Each string is interned once."""
    order = _first_seen(np.concatenate(ids), len(pool))
    table = np.full(len(pool) + 1, NULL_ID, dtype=np.int64)
    table[order] = np.arange(len(order))
    strings = pool._strings
    return StringPool([strings[i] for i in order.tolist()]), table


def _remapped(table: np.ndarray, column: "array[int]") -> "array[int]":
    """The ids of ``column`` mapped through ``table`` (:data:`NULL_ID`,
    -1, reads its last slot)."""
    return _taken(table, _view(column), "q")


def select_own_pools(
    events: ColumnarRadioEvents,
    records: ColumnarServiceRecords,
    radio_rows: Indices,
    service_rows: Indices,
) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords]:
    """The rows at ``radio_rows`` and ``service_rows``, on pools of their own.

    Equals ``from_record_streams(events.rows_at(radio_rows),
    records.rows_at(service_rows))`` column for column and pool for
    pool, and builds no row.  Every column is a :meth:`select` gather;
    each pool then holds only the strings the rows name, in the order
    that call interns them: devices over the radio rows, then the
    service rows; PLMNs over the radio SIMs, then each service row's
    SIM and visited network in turn; APNs over the service rows
    (:data:`NULL_ID` stays itself).  The id columns are mapped to the
    new ids through one table per pool.
    """
    if events.pools is not records.pools:
        raise ValueError("columnar streams must share one ColumnPools")
    radio, service = events.select(radio_rows), records.select(service_rows)
    pools = events.pools
    devices, device_of = _own_pool(
        pools.devices, _view(radio.device_ids), _view(service.device_ids)
    )
    plmns, plmn_of = _own_pool(
        pools.plmns,
        _view(radio.sim_plmns),
        np.column_stack((_view(service.sim_plmns), _view(service.visited_plmns))).ravel(),
    )
    apns = _view(service.apns)
    apn_pool, apn_of = _own_pool(pools.apns, apns[apns != NULL_ID])
    radio.pools = service.pools = ColumnPools(devices, plmns, apn_pool)
    radio.device_ids = _remapped(device_of, radio.device_ids)
    radio.sim_plmns = _remapped(plmn_of, radio.sim_plmns)
    service.device_ids = _remapped(device_of, service.device_ids)
    service.sim_plmns = _remapped(plmn_of, service.sim_plmns)
    service.visited_plmns = _remapped(plmn_of, service.visited_plmns)
    service.apns = _remapped(apn_of, service.apns)
    return radio, service


def _by_day(store: _Store) -> Dict[int, _Store]:
    """The store's rows per day; the store itself when it holds one day.

    A day's rows keep their order (a stable sort by day).
    """
    days = _view(store.days)
    if not len(days):
        return {}
    if days.min() == days.max():
        return {int(days[0]): store}
    order = np.argsort(days, kind="stable")
    starts = np.flatnonzero(np.diff(days[order])) + 1
    return {int(days[rows[0]]): store.select(rows) for rows in np.split(order, starts)}


def split_by_day(
    events: ColumnarRadioEvents, records: ColumnarServiceRecords
) -> List[Tuple[int, ColumnarRadioEvents, ColumnarServiceRecords]]:
    """``(day, radio rows, service rows)`` for each day the stores hold.

    Days ascend; a day's rows keep their order and share the input
    pools, and a day one store has no rows for gets an empty store.
    This is how a delta spanning several days is folded, one
    :meth:`~repro.core.catalog.CatalogBuilder.update` per day.
    """
    radio, service = _by_day(events), _by_day(records)
    no_radio = ColumnarRadioEvents(events.pools)
    no_service = ColumnarServiceRecords(records.pools)
    return [
        (day, radio.get(day, no_radio), service.get(day, no_service))
        for day in sorted(radio.keys() | service.keys())
    ]


class RowSequence(Sequence[Row]):
    """Read-only row view over one column store.

    ``len`` reads the store and builds no row.  The first element
    access materializes every row with ``store.to_rows()`` and caches
    the list, so indexing, slicing (a list), iteration, ``==`` against
    another row list and ``+`` with a list behave as on that list, and
    a second pass yields the same row objects.
    """

    __slots__ = ("store", "_rows")

    def __init__(self, store: Any) -> None:
        self.store = store
        self._rows: Optional[List[Row]] = None

    @property
    def rows(self) -> List[Row]:
        """Every row, in storage order (built on first call, then cached)."""
        if self._rows is None:
            self._rows = self.store.to_rows()
        return self._rows

    def __len__(self) -> int:
        return len(self.store)

    @overload
    def __getitem__(self, index: int) -> Row:
        ...

    @overload
    def __getitem__(self, index: slice) -> List[Row]:
        ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Row, List[Row]]:
        return self.rows[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowSequence):
            other = other.rows
        if isinstance(other, list):
            return self.rows == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: object) -> List[Row]:
        if isinstance(other, list):
            return self.rows + other
        return NotImplemented

    def __radd__(self, other: object) -> List[Row]:
        if isinstance(other, list):
            return other + self.rows
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowSequence({self.store!r})"
