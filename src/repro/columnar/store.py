"""Struct-of-arrays event storage with string interning (stdlib only).

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
  boundaries (simulators, codecs, query responses) convert losslessly;
  ``select`` slices a store by row index while sharing the pools, which
  is how the sharded executor exchanges interned column blocks and the
  lenient path isolates one device's rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.signaling.cdr import SERVICE_TYPES, ServiceRecord
from repro.signaling.events import RADIO_INTERFACES, RadioEvent
from repro.signaling.procedures import MESSAGE_TYPES, RESULT_CODES

#: Sentinel id for a NULL string (e.g. a voice CDR's absent APN).
NULL_ID = -1

#: A column buffer.
Column = Union["array[int]", "array[float]"]

_INTERFACE_INDEX = {member: index for index, member in enumerate(RADIO_INTERFACES)}
_MESSAGE_INDEX = {member: index for index, member in enumerate(MESSAGE_TYPES)}
_RESULT_INDEX = {member: index for index, member in enumerate(RESULT_CODES)}
_SERVICE_INDEX = {member: index for index, member in enumerate(SERVICE_TYPES)}


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


def _select(column: Column, indices: Sequence[int]) -> array:
    # map() over the bound __getitem__ stays in C for the whole gather,
    # which is measurably faster than a generator with an index loop.
    return array(column.typecode, map(column.__getitem__, indices))


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

    def append(self, event: RadioEvent) -> None:
        """Encode one row onto the columns."""
        pools = self.pools
        self.device_ids.append(pools.devices.intern(event.device_id))
        timestamp = event.timestamp
        self.timestamps.append(timestamp)
        self.days.append(int(timestamp // 86400.0))
        self.sim_plmns.append(pools.plmns.intern(event.sim_plmn))
        self.tacs.append(event.tac)
        self.sector_ids.append(event.sector_id)
        self.interfaces.append(_INTERFACE_INDEX[event.interface])
        self.event_types.append(_MESSAGE_INDEX[event.event_type])
        self.results.append(_RESULT_INDEX[event.result])

    @classmethod
    def from_rows(
        cls,
        events: Iterable[RadioEvent],
        pools: Optional[ColumnPools] = None,
    ) -> "ColumnarRadioEvents":
        """Encode a row stream (preserving order) into a new store."""
        store = cls(pools)
        append = store.append
        for event in events:
            append(event)
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

    def select(self, indices: Sequence[int]) -> "ColumnarRadioEvents":
        """A new store holding the rows at ``indices``, sharing pools."""
        out = ColumnarRadioEvents(self.pools)
        out.device_ids = _select(self.device_ids, indices)
        out.timestamps = _select(self.timestamps, indices)
        out.days = _select(self.days, indices)
        out.sim_plmns = _select(self.sim_plmns, indices)
        out.tacs = _select(self.tacs, indices)
        out.sector_ids = _select(self.sector_ids, indices)
        out.interfaces = _select(self.interfaces, indices)
        out.event_types = _select(self.event_types, indices)
        out.results = _select(self.results, indices)
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

    def append(self, record: ServiceRecord) -> None:
        """Encode one row onto the columns."""
        pools = self.pools
        self.device_ids.append(pools.devices.intern(record.device_id))
        timestamp = record.timestamp
        self.timestamps.append(timestamp)
        self.days.append(int(timestamp // 86400.0))
        self.sim_plmns.append(pools.plmns.intern(record.sim_plmn))
        self.visited_plmns.append(pools.plmns.intern(record.visited_plmn))
        self.services.append(_SERVICE_INDEX[record.service])
        self.durations.append(record.duration_s)
        self.bytes_totals.append(record.bytes_total)
        self.apns.append(pools.apns.intern_optional(record.apn))

    @classmethod
    def from_rows(
        cls,
        records: Iterable[ServiceRecord],
        pools: Optional[ColumnPools] = None,
    ) -> "ColumnarServiceRecords":
        """Encode a row stream (preserving order) into a new store."""
        store = cls(pools)
        append = store.append
        for record in records:
            append(record)
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

    def select(self, indices: Sequence[int]) -> "ColumnarServiceRecords":
        """A new store holding the rows at ``indices``, sharing pools."""
        out = ColumnarServiceRecords(self.pools)
        out.device_ids = _select(self.device_ids, indices)
        out.timestamps = _select(self.timestamps, indices)
        out.days = _select(self.days, indices)
        out.sim_plmns = _select(self.sim_plmns, indices)
        out.visited_plmns = _select(self.visited_plmns, indices)
        out.services = _select(self.services, indices)
        out.durations = _select(self.durations, indices)
        out.bytes_totals = _select(self.bytes_totals, indices)
        out.apns = _select(self.apns, indices)
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
