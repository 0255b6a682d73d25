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
  sharing the pools (a numpy gather over each column's buffer), which
  is how the sharded executor exchanges interned column blocks and the
  daemon splits a multi-day batch.  ``from_rows`` fills a store column
  by column, one pool lookup per distinct string, and assigns ids in
  the order a row-by-row encoding would.
- ``append_fields`` takes a decoded wire row (a field tuple, see
  :func:`repro.datasets.io.decode_radio_row`), runs the record's
  invariant check and only then interns: the catalog daemon parses each
  ingest batch straight onto a fresh store pair this way, building no
  row object.
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
    Any,
    Dict,
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

from repro.signaling.cdr import SERVICE_TYPES, ServiceRecord, check_service_record
from repro.signaling.events import RADIO_INTERFACES, RadioEvent, check_radio_event
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
        self._ids: Dict[str, int] = {}
        self._strings: List[str] = []
        if strings is not None:
            for text in strings:
                self.intern(text)

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


def _interned(pool: StringPool, *columns: List[Optional[str]]) -> List["array[int]"]:
    """The id columns of ``columns`` (None to :data:`NULL_ID`), one
    lookup per distinct text: new strings get ids in order of first
    sight, row by row, as one :meth:`StringPool.intern_optional` call
    per field would."""
    texts: Iterable[Optional[str]] = (
        columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns))
    )
    table = {text: pool.intern_optional(text) for text in dict.fromkeys(texts)}
    return [array("q", list(map(table.__getitem__, column))) for column in columns]


def _days_of(timestamps: Column) -> "array[int]":
    """The day column of ``timestamps``: numpy's float floor division
    rounds as ``int(timestamp // 86400.0)`` does."""
    days = np.frombuffer(timestamps, dtype=np.float64) // 86400.0
    return array("q", days.astype(np.int64).tobytes())


def _select(column: Column, positions: "np.ndarray") -> array:
    """``column[i]`` for each of ``positions``, gathered by numpy.

    The view shares the column's buffer (no copy in), and ``take``
    raises ``IndexError`` on an out-of-range index as indexing does.
    """
    gathered = np.frombuffer(column, dtype=column.typecode).take(positions)
    return array(column.typecode, gathered.tobytes())


class ColumnarRadioEvents:
    """Struct-of-arrays storage for :class:`RadioEvent` streams.

    Columns (parallel, one entry per event): ``device_ids`` /
    ``sim_plmns`` interned, ``timestamps`` / ``days`` / ``tacs`` /
    ``sector_ids`` numeric, ``interfaces`` / ``event_types`` /
    ``results`` enum indices.
    """

    __slots__ = (
        "pools",
        "device_ids",
        "timestamps",
        "days",
        "sim_plmns",
        "tacs",
        "sector_ids",
        "interfaces",
        "event_types",
        "results",
    )

    def __init__(self, pools: Optional[ColumnPools] = None) -> None:
        self.pools = pools if pools is not None else ColumnPools()
        self.device_ids = array("q")
        self.timestamps = array("d")
        self.days = array("q")
        self.sim_plmns = array("q")
        self.tacs = array("q")
        self.sector_ids = array("q")
        self.interfaces = array("b")
        self.event_types = array("b")
        self.results = array("b")

    # -- ingestion -----------------------------------------------------------

    def append_fields(self, fields: RadioFields) -> None:
        """Check one decoded row, then encode it onto the columns.

        The check (:func:`~repro.signaling.events.check_radio_event`,
        the one :class:`RadioEvent` runs) comes before any interning,
        so a rejected row leaves no string in a pool and no partial
        column.
        """
        device_id, timestamp, sim_plmn, tac, sector_id, interface, event_type, result = fields
        check_radio_event(device_id, timestamp, sim_plmn, tac, sector_id)
        pools = self.pools
        self.device_ids.append(pools.devices.intern(device_id))
        self.timestamps.append(timestamp)
        self.days.append(int(timestamp // 86400.0))
        self.sim_plmns.append(pools.plmns.intern(sim_plmn))
        self.tacs.append(tac)
        self.sector_ids.append(sector_id)
        self.interfaces.append(interface)
        self.event_types.append(event_type)
        self.results.append(result)

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
        store = cls(pools)
        rows = list(events)
        pools = store.pools
        (store.device_ids,) = _interned(pools.devices, list(map(_DEVICE_ID, rows)))
        store.timestamps = array("d", list(map(_TIMESTAMP, rows)))
        store.days = _days_of(store.timestamps)
        (store.sim_plmns,) = _interned(pools.plmns, list(map(_SIM_PLMN, rows)))
        store.tacs = array("q", list(map(_TAC, rows)))
        store.sector_ids = array("q", list(map(_SECTOR_ID, rows)))
        store.interfaces = array("b", [_INTERFACE_OF[e.interface] for e in rows])
        store.event_types = array("b", [_MESSAGE_OF[e.event_type] for e in rows])
        store.results = array("b", [_RESULT_OF[e.result] for e in rows])
        return store

    # -- row materialization -------------------------------------------------

    def row(self, index: int) -> RadioEvent:
        """Materialize one row back into its dataclass form."""
        pools = self.pools
        return RadioEvent(
            device_id=pools.devices.lookup(self.device_ids[index]),
            timestamp=self.timestamps[index],
            sim_plmn=pools.plmns.lookup(self.sim_plmns[index]),
            tac=self.tacs[index],
            sector_id=self.sector_ids[index],
            interface=RADIO_INTERFACES[self.interfaces[index]],
            event_type=MESSAGE_TYPES[self.event_types[index]],
            result=RESULT_CODES[self.results[index]],
        )

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

    def to_rows(self) -> List[RadioEvent]:
        """Materialize every row, in storage order (exact round-trip)."""
        return self.rows_at(range(len(self)))

    def iter_rows(self) -> Iterator[RadioEvent]:
        for i in range(len(self)):
            yield self.row(i)

    # -- slicing -------------------------------------------------------------

    def select(self, indices: Indices) -> "ColumnarRadioEvents":
        """A new store holding the rows at ``indices``, sharing pools."""
        positions = np.asarray(indices, dtype=np.intp)
        out = ColumnarRadioEvents(self.pools)
        out.device_ids = _select(self.device_ids, positions)
        out.timestamps = _select(self.timestamps, positions)
        out.days = _select(self.days, positions)
        out.sim_plmns = _select(self.sim_plmns, positions)
        out.tacs = _select(self.tacs, positions)
        out.sector_ids = _select(self.sector_ids, positions)
        out.interfaces = _select(self.interfaces, positions)
        out.event_types = _select(self.event_types, positions)
        out.results = _select(self.results, positions)
        return out

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def nbytes(self) -> int:
        """Total column buffer size in bytes (excludes the pools)."""
        return sum(
            len(column) * column.itemsize
            for column in (
                self.device_ids,
                self.timestamps,
                self.days,
                self.sim_plmns,
                self.tacs,
                self.sector_ids,
                self.interfaces,
                self.event_types,
                self.results,
            )
        )

    def __repr__(self) -> str:
        return f"ColumnarRadioEvents({len(self)} rows, {self.nbytes} column bytes)"


class ColumnarServiceRecords:
    """Struct-of-arrays storage for :class:`ServiceRecord` streams.

    ``apns`` uses :data:`NULL_ID` for voice CDRs (which carry no APN);
    ``services`` indexes the canonical ``SERVICE_TYPES`` order.
    """

    __slots__ = (
        "pools",
        "device_ids",
        "timestamps",
        "days",
        "sim_plmns",
        "visited_plmns",
        "services",
        "durations",
        "bytes_totals",
        "apns",
    )

    def __init__(self, pools: Optional[ColumnPools] = None) -> None:
        self.pools = pools if pools is not None else ColumnPools()
        self.device_ids = array("q")
        self.timestamps = array("d")
        self.days = array("q")
        self.sim_plmns = array("q")
        self.visited_plmns = array("q")
        self.services = array("b")
        self.durations = array("d")
        self.bytes_totals = array("q")
        self.apns = array("q")

    # -- ingestion -----------------------------------------------------------

    def append_fields(self, fields: ServiceFields) -> None:
        """Check one decoded row, then encode it onto the columns.

        Like :meth:`ColumnarRadioEvents.append_fields`, with
        :func:`~repro.signaling.cdr.check_service_record`.
        """
        device_id, timestamp, sim_plmn, visited_plmn, service, duration_s, bytes_total, apn = fields
        check_service_record(
            device_id, timestamp, sim_plmn, visited_plmn,
            SERVICE_TYPES[service], duration_s, bytes_total, apn,
        )
        pools = self.pools
        self.device_ids.append(pools.devices.intern(device_id))
        self.timestamps.append(timestamp)
        self.days.append(int(timestamp // 86400.0))
        self.sim_plmns.append(pools.plmns.intern(sim_plmn))
        self.visited_plmns.append(pools.plmns.intern(visited_plmn))
        self.services.append(service)
        self.durations.append(duration_s)
        self.bytes_totals.append(bytes_total)
        self.apns.append(pools.apns.intern_optional(apn))

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
        store = cls(pools)
        rows = list(records)
        pools = store.pools
        (store.device_ids,) = _interned(pools.devices, list(map(_DEVICE_ID, rows)))
        store.timestamps = array("d", list(map(_TIMESTAMP, rows)))
        store.days = _days_of(store.timestamps)
        store.sim_plmns, store.visited_plmns = _interned(
            pools.plmns, list(map(_SIM_PLMN, rows)), list(map(_VISITED_PLMN, rows))
        )
        store.services = array("b", [_SERVICE_OF[r.service] for r in rows])
        store.durations = array("d", list(map(_DURATION, rows)))
        store.bytes_totals = array("q", list(map(_BYTES_TOTAL, rows)))
        (store.apns,) = _interned(pools.apns, list(map(_APN, rows)))
        return store

    # -- row materialization -------------------------------------------------

    def row(self, index: int) -> ServiceRecord:
        """Materialize one row back into its dataclass form."""
        pools = self.pools
        return ServiceRecord(
            device_id=pools.devices.lookup(self.device_ids[index]),
            timestamp=self.timestamps[index],
            sim_plmn=pools.plmns.lookup(self.sim_plmns[index]),
            visited_plmn=pools.plmns.lookup(self.visited_plmns[index]),
            service=SERVICE_TYPES[self.services[index]],
            duration_s=self.durations[index],
            bytes_total=self.bytes_totals[index],
            apn=pools.apns.lookup_optional(self.apns[index]),
        )

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

    def to_rows(self) -> List[ServiceRecord]:
        """Materialize every row, in storage order (exact round-trip)."""
        return self.rows_at(range(len(self)))

    def iter_rows(self) -> Iterator[ServiceRecord]:
        for i in range(len(self)):
            yield self.row(i)

    # -- slicing -------------------------------------------------------------

    def select(self, indices: Indices) -> "ColumnarServiceRecords":
        """A new store holding the rows at ``indices``, sharing pools."""
        positions = np.asarray(indices, dtype=np.intp)
        out = ColumnarServiceRecords(self.pools)
        out.device_ids = _select(self.device_ids, positions)
        out.timestamps = _select(self.timestamps, positions)
        out.days = _select(self.days, positions)
        out.sim_plmns = _select(self.sim_plmns, positions)
        out.visited_plmns = _select(self.visited_plmns, positions)
        out.services = _select(self.services, positions)
        out.durations = _select(self.durations, positions)
        out.bytes_totals = _select(self.bytes_totals, positions)
        out.apns = _select(self.apns, positions)
        return out

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def nbytes(self) -> int:
        """Total column buffer size in bytes (excludes the pools)."""
        return sum(
            len(column) * column.itemsize
            for column in (
                self.device_ids,
                self.timestamps,
                self.days,
                self.sim_plmns,
                self.visited_plmns,
                self.services,
                self.durations,
                self.bytes_totals,
                self.apns,
            )
        )

    def __repr__(self) -> str:
        return f"ColumnarServiceRecords({len(self)} rows, {self.nbytes} column bytes)"


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


Row = TypeVar("Row", RadioEvent, ServiceRecord)


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
