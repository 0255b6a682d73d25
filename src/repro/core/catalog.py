"""The daily devices-catalog: the paper's central data product (§4.1).

"We combine the three data sources to create a daily list of active
devices and associated properties and traffic characteristics …  Each
record in the generated catalog reports a device ID, total number of
events, calls, bytes seen, SIM MCC/MNC, list of visited MCC-MNC, list of
APN strings, device manufacturer, device model, device OS", radio-flags
and mobility metrics.

:class:`CatalogBuilder` derives the catalog from radio events and CDR/xDR
records interned as columns (:mod:`repro.columnar`), joins the TAC
catalog for device properties and the sector catalog for mobility, and
emits :class:`DeviceDayRecord` rows plus whole-window
:class:`DeviceSummary` aggregates (the unit most of the paper's figures
are computed over).

One numpy kernel derives every (device, day) cell: it sorts the rows by
(device, day, timestamp, sector or duration) and, one block of devices
at a time, computes each cell's counts, RAT masks, APN and visited sets,
voice minutes and mobility with grouped numpy operations, leaving only
the record objects to Python.  Float sums run left to right
(``np.bincount``) in that sorted order and transcendentals are
:mod:`math` calls, so a record is a function of the multiset of rows.

The row order is that of ``np.lexsort((tie, timestamp, day, rank))``,
derived in three cheaper steps (:func:`_row_order`): a stable sort of
the timestamps, near linear on the time-sorted streams the simulator,
the wire batches and the durable units hold; a stable sort of the
device ranks narrowed to ``uint16``, which numpy runs as a radix sort
(two 16-bit passes past 65,535 devices); and a ``lexsort`` by the tie
key of only the rows whose (rank, timestamp) ties.  The day key needs
no pass of its own: every store holds ``days == timestamps // 86400``
(its constructors derive the days so, :meth:`CatalogBuilder.update`
refuses rows of another day and ``unpack_day_block`` refuses a block
whose days are not its timestamps'), and floor division keeps the
order of the timestamps, so sorting by timestamp sorts by day too.

The one-shot build runs the kernel over its input; the incremental
engine keeps each day's rows and each device's identity keys, and a
snapshot runs the same kernel, once, over the device-days touched
since the last one.  Summaries are folds of a device's day records in
day order (:class:`_Rollup`), and the engine keeps each device's
rollup, so a device whose new days all follow its kept ones is
summarized from its rollup and the new days alone.

A summary and its roaming label aggregate a device over the whole
window, so whether a device can be finalized is decided here, once per
device, in every execution mode: in lenient mode a device whose day
records or summary raise is left out and kept as a
:class:`StageFailure` in :attr:`CatalogBuilder.quarantined`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.cellular.rats import RadioFlags
from repro.cellular.sectors import SectorCatalog
from repro.cellular.tac_db import DeviceModel, TACDatabase
from repro.columnar.store import (
    NULL_ID,
    Column,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    ColumnPools,
    StringPool,
)
from repro.core.mobility import MobilityMetrics, SectorTable, batch_daily_mobility
from repro.core.roaming import RoamingLabel, RoamingLabeler
from repro.signaling.cdr import SERVICE_TYPES, ServiceType
from repro.signaling.events import RADIO_INTERFACES
from repro.signaling.procedures import MESSAGE_TYPES, RESULT_CODES

#: Kernel tables, indexed by the canonical enum orders the stores
#: encode against: per-result success bit, per-interface voice bit and
#: RAT mask, per-service voice bit.  Indexing one with an enum column
#: replaces per-row property chains.
_RESULT_IS_SUCCESS = np.array([code.is_success for code in RESULT_CODES], dtype=bool)
_INTERFACE_IS_VOICE = np.array(
    [interface.is_voice for interface in RADIO_INTERFACES], dtype=bool
)
_INTERFACE_RAT_BIT = np.array(
    [RadioFlags.from_rats((interface.rat,)).mask for interface in RADIO_INTERFACES],
    dtype=np.int64,
)
_SERVICE_IS_VOICE = np.array(
    [service is ServiceType.VOICE for service in SERVICE_TYPES], dtype=bool
)

#: Devices one kernel block finalizes: the block's temporaries scale
#: with its rows, not with the input's.
_BLOCK_DEVICES = 128

#: Every radio-flags value, by mask: records share these (frozen) objects.
_FLAGS: Tuple[RadioFlags, ...] = tuple(RadioFlags(mask) for mask in range(8))
_NO_STRINGS: FrozenSet[str] = frozenset()
_DAY = attrgetter("day")


@dataclass(frozen=True)
class StageFailure:
    """One quarantined device: which stage crashed, and how."""

    device_id: str
    stage: str
    error: str

    @classmethod
    def of(cls, device_id: str, stage: str, error: Exception) -> "StageFailure":
        return cls(device_id, stage, f"{type(error).__name__}: {error}")

    def __str__(self) -> str:
        return f"{self.device_id}@{self.stage}: {self.error}"


@dataclass(frozen=True)
class DeviceDayRecord:
    """One devices-catalog row: one device on one day."""

    device_id: str
    day: int
    sim_plmn: str
    visited_plmns: FrozenSet[str]
    n_events: int
    n_failed_events: int
    n_calls: int
    voice_minutes: float
    n_data_sessions: int
    bytes_total: int
    apns: FrozenSet[str]
    radio_flags: RadioFlags
    voice_flags: RadioFlags
    data_flags: RadioFlags
    mobility: Optional[MobilityMetrics]
    on_home_network: bool

    @property
    def has_activity(self) -> bool:
        return bool(self.n_events or self.n_calls or self.n_data_sessions)


@dataclass
class DeviceSummary:
    """Whole-window aggregate for one device.

    ``voice_flags``/``data_flags`` split radio activity per plane — the
    inputs to Fig. 9's three panels.  ``label`` is the device's roaming
    label; ``model`` its GSMA-catalog join (None when the TAC is unknown
    or the device was only seen in CDR/xDRs).
    """

    device_id: str
    sim_plmn: str
    label: RoamingLabel
    active_days: int
    n_events: int = 0
    n_failed_events: int = 0
    n_calls: int = 0
    voice_minutes: float = 0.0
    n_data_sessions: int = 0
    bytes_total: int = 0
    apns: FrozenSet[str] = frozenset()
    visited_plmns: FrozenSet[str] = frozenset()
    radio_flags: RadioFlags = RadioFlags()
    voice_flags: RadioFlags = RadioFlags()
    data_flags: RadioFlags = RadioFlags()
    tac: Optional[int] = None
    model: Optional[DeviceModel] = None
    mean_gyration_km: Optional[float] = None

    @property
    def manufacturer(self) -> Optional[str]:
        return self.model.manufacturer if self.model else None

    @property
    def has_voice(self) -> bool:
        return self.n_calls > 0 or not self.voice_flags.is_empty

    @property
    def has_data(self) -> bool:
        return self.n_data_sessions > 0 or not self.data_flags.is_empty

    @property
    def property_key(self) -> Optional[Tuple[str, str]]:
        """(manufacturer, model) key for classifier propagation."""
        return self.model.property_key if self.model else None

    def signaling_per_day(self) -> float:
        return self.n_events / self.active_days if self.active_days else 0.0


#: Wire value per enum index, so identity keys compare the strings the
#: row schema carries and break ties the same way under any pool.
_INTERFACE_VALUES: Tuple[str, ...] = tuple(member.value for member in RADIO_INTERFACES)
_MESSAGE_VALUES: Tuple[str, ...] = tuple(member.value for member in MESSAGE_TYPES)
_RESULT_VALUES: Tuple[str, ...] = tuple(member.value for member in RESULT_CODES)
_SERVICE_VALUES: Tuple[str, ...] = tuple(member.value for member in SERVICE_TYPES)

#: ``(timestamp, sector_id, interface, event_type, result, tac, sim_plmn)``
#: of a radio event: a device's SIM and TAC come from its minimum.
RadioKey = Tuple[float, int, str, str, str, int, str]
#: ``(timestamp, service, duration_s, bytes_total, visited_plmn, apn or
#: "", sim_plmn)`` of a service record: the SIM of a device without radio
#: events comes from its minimum.
ServiceKey = Tuple[float, str, float, int, str, str, str]


# -- identity -----------------------------------------------------------------

def _earliest(device_ids: Column, timestamps: Column, n_devices: int) -> List[int]:
    """Rows at their device's minimum timestamp (usually one per device)."""
    devices = _view(device_ids)
    times = _view(timestamps)
    first = np.full(n_devices, np.inf)
    np.minimum.at(first, devices, times)
    rows: List[int] = np.flatnonzero(times == first[devices]).tolist()
    return rows


def _merge_min_keys(
    radio_events: ColumnarRadioEvents,
    service_records: ColumnarServiceRecords,
    radio_keys: Dict[str, RadioKey],
    service_keys: Dict[str, ServiceKey],
) -> None:
    """Lower each device's key in ``radio_keys`` and ``service_keys`` to
    its minimum radio and service key over the stores' rows.

    Key tuples are built only for the rows at a device's minimum
    timestamp, the only rows that can hold its minimum key, and only
    where that timestamp does not pass the device's kept key's.
    """
    pools = radio_events.pools
    devices = pools.devices
    plmns = pools.plmns
    r = radio_events
    for i in _earliest(r.device_ids, r.timestamps, len(devices)):
        device_id = devices.lookup(r.device_ids[i])
        current = radio_keys.get(device_id)
        if current is not None and current[0] < r.timestamps[i]:
            continue
        radio_key: RadioKey = (
            r.timestamps[i], r.sector_ids[i], _INTERFACE_VALUES[r.interfaces[i]],
            _MESSAGE_VALUES[r.event_types[i]], _RESULT_VALUES[r.results[i]],
            r.tacs[i], plmns.lookup(r.sim_plmns[i]),
        )
        if current is None or radio_key < current:
            radio_keys[device_id] = radio_key
    s = service_records
    for i in _earliest(s.device_ids, s.timestamps, len(devices)):
        device_id = devices.lookup(s.device_ids[i])
        found = service_keys.get(device_id)
        if found is not None and found[0] < s.timestamps[i]:
            continue
        apn = s.apns[i]
        service_key: ServiceKey = (
            s.timestamps[i], _SERVICE_VALUES[s.services[i]], s.durations[i],
            s.bytes_totals[i], plmns.lookup(s.visited_plmns[i]),
            "" if apn == NULL_ID else pools.apns.lookup(apn),
            plmns.lookup(s.sim_plmns[i]),
        )
        if found is None or service_key < found:
            service_keys[device_id] = service_key


def _identity(
    radio_keys: Dict[str, RadioKey],
    service_keys: Dict[str, ServiceKey],
    device_id: str,
) -> Tuple[str, Optional[int]]:
    """(SIM, TAC) from the device's minimum radio key, else the SIM of
    its minimum service key and no TAC."""
    radio_key = radio_keys.get(device_id)
    if radio_key is not None:
        return radio_key[6], radio_key[5]
    service_key = service_keys.get(device_id)
    if service_key is None:  # unreachable: every device has a row
        raise RuntimeError("device has rows but no SIM")
    return service_key[6], None


# -- kernel input --------------------------------------------------------------

class _RadioRows(NamedTuple):
    """The radio columns the kernel reads, one entry per row."""

    device: np.ndarray
    day: np.ndarray
    timestamp: np.ndarray
    sector: np.ndarray
    interface: np.ndarray
    result: np.ndarray


class _ServiceRows(NamedTuple):
    """The service columns the kernel reads, one entry per row."""

    device: np.ndarray
    day: np.ndarray
    timestamp: np.ndarray
    service: np.ndarray
    duration: np.ndarray
    bytes_total: np.ndarray
    visited: np.ndarray
    apn: np.ndarray


def _view(column: Column) -> np.ndarray:
    return np.frombuffer(column, dtype=column.typecode)


def _radio_rows(store: ColumnarRadioEvents) -> _RadioRows:
    """Views (no copy) of the store's kernel columns."""
    return _RadioRows(
        _view(store.device_ids), _view(store.days), _view(store.timestamps),
        _view(store.sector_ids), _view(store.interfaces), _view(store.results),
    )


def _service_rows(store: ColumnarServiceRecords) -> _ServiceRows:
    """Views (no copy) of the store's kernel columns."""
    return _ServiceRows(
        _view(store.device_ids), _view(store.days), _view(store.timestamps),
        _view(store.services), _view(store.durations), _view(store.bytes_totals),
        _view(store.visited_plmns), _view(store.apns),
    )


def _own_ids(ids: np.ndarray, pool: StringPool, own: StringPool) -> np.ndarray:
    """``ids`` of ``pool`` re-interned into ``own`` (NULL_ID stays): only
    the distinct ids present are looked up, so a delta costs its own size
    whatever the size of its pool."""
    unique, inverse = np.unique(ids, return_inverse=True)
    table = np.array(
        [
            NULL_ID if i == NULL_ID else own.intern(pool.lookup(i))
            for i in unique.tolist()
        ],
        dtype=np.int32,
    )
    translated: np.ndarray = table[inverse]
    return translated


def _joined(chunks: List[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    if len(chunks) == 1:
        return chunks[0]
    return tuple(np.concatenate(columns) for columns in zip(*chunks))


class _DayRows:
    """One day's rows in the builder's own pools: the kernel's columns
    but the day, appended one chunk per delta and joined on read."""

    __slots__ = ("radio", "service")

    def __init__(self) -> None:
        self.radio: List[Tuple[np.ndarray, ...]] = []
        self.service: List[Tuple[np.ndarray, ...]] = []

    def gather(
        self, day: int, devices: List[int]
    ) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """This day's radio and service rows of ``devices`` (own ids),
        the day column second: a mask over every row of the day, and no
        copy when it keeps them all."""
        gathered = []
        for chunks in (self.radio, self.service):
            rows = _joined(chunks)
            chunks[:] = [rows]
            keep = np.isin(rows[0], devices)
            if not keep.all():
                rows = tuple(column[keep] for column in rows)
            gathered.append(
                (rows[0], np.full(len(rows[0]), day, dtype=np.int64)) + rows[1:]
            )
        return gathered[0], gathered[1]


# -- kernel --------------------------------------------------------------------

#: One cell's :class:`DeviceDayRecord` fields after ``sim_plmn``, in
#: field order.
_CellFields = Tuple[Any, ...]


def _heads(*keys: np.ndarray) -> np.ndarray:
    """True where a row starts a run of equal ``keys``."""
    head = np.zeros(len(keys[0]), dtype=bool)
    if len(head):
        head[0] = True
        for key in keys:
            head[1:] |= key[1:] != key[:-1]
    return head


def _row_order(rank: np.ndarray, timestamp: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Row indices sorted by (rank, timestamp, tie), equal rows in index
    order: ``np.lexsort((tie, timestamp, timestamp // 86400, rank))``
    for ranks in [0, 2**32) and the finite timestamps and ties the
    stores hold.  Each run of rows whose (rank, timestamp) ties is
    sorted by ``tie`` in place."""
    order = np.argsort(timestamp, kind="stable")
    ranks = rank[order]
    for shift in (0, 16) if len(ranks) and int(ranks.max()) > 0xFFFF else (0,):
        by_rank = np.argsort((ranks >> shift).astype(np.uint16), kind="stable")
        order = order[by_rank]
        ranks = ranks[by_rank]
    head = _heads(ranks, timestamp[order])
    if not head.all():
        tied = ~head
        tied[:-1] |= ~head[1:]
        rows = np.flatnonzero(tied)
        runs = np.cumsum(head)[rows]
        order[rows] = order[rows][np.lexsort((tie[order[rows]], runs))]
    return order


def _string_sets(
    cells: np.ndarray, ids: np.ndarray, strings: Sequence[str], n_cells: int
) -> List[FrozenSet[str]]:
    """Each cell's set of ``strings[id]`` over its ``(cell, id)`` pairs;
    cells with the same ids share one frozenset."""
    sets = [_NO_STRINGS] * n_cells
    if not len(cells):
        return sets
    memo: Dict[Tuple[int, ...], FrozenSet[str]] = {}
    width = len(strings)
    pairs = np.unique(cells.astype(np.int64) * width + ids)
    pair_cells = pairs // width
    starts = np.flatnonzero(_heads(pair_cells))
    cell_list = pair_cells[starts].tolist()
    id_list = (pairs % width).tolist()
    ends = starts[1:].tolist() + [len(pairs)]
    for cell, start, end in zip(cell_list, starts.tolist(), ends):
        key = tuple(id_list[start:end])
        found = memo.get(key)
        if found is None:
            found = memo[key] = frozenset(strings[i] for i in key)
        sets[cell] = found
    return sets


def _byte_totals(cells: np.ndarray, counts: np.ndarray, n_cells: int) -> List[int]:
    """Each cell's byte total (``cells`` nondecreasing): int64 sums
    while no sum can pass int64, exact Python ints otherwise (counts are
    non-negative, as the record check holds them)."""
    if not len(counts):
        return [0] * n_cells
    if int(counts.max()) * len(counts) < 2**63:
        starts = np.flatnonzero(_heads(cells))
        totals = np.zeros(n_cells, dtype=np.int64)
        totals[cells[starts]] = np.add.reduceat(counts, starts)
        exact: List[int] = totals.tolist()
        return exact
    big = [0] * n_cells
    for cell, count in zip(cells.tolist(), counts.tolist()):
        big[cell] += count
    return big


# -- summaries -----------------------------------------------------------------

class _Rollup(NamedTuple):
    """A device's whole-window aggregates over its day records, folded
    in day order.  Folding later days onto a rollup gives what folding
    every day at once gives, float sums included, so a fold that only
    adds days after a device's last one re-reads none of its records."""

    sim_plmn: str
    first_visited: FrozenSet[str]
    ever_home: bool
    active_days: int
    n_events: int
    n_failed_events: int
    n_calls: int
    voice_minutes: float
    n_data_sessions: int
    bytes_total: int
    gyration_sum: float
    gyration_n: int
    apns: FrozenSet[str]
    visited: FrozenSet[str]
    radio_mask: int
    voice_mask: int
    data_mask: int


def _roll_up(
    records: Sequence[DeviceDayRecord], base: Optional[_Rollup] = None
) -> _Rollup:
    """``records`` (one device's, in day order) folded onto ``base``, or
    onto nothing: then the first record gives the SIM and the visited
    networks a never-home device is labeled by."""
    if base is None:
        first = records[0]
        base = _Rollup(
            first.sim_plmn, first.visited_plmns, False, 0, 0, 0, 0, 0.0, 0, 0,
            0.0, 0, _NO_STRINGS, _NO_STRINGS, 0, 0, 0,
        )
    (
        sim_plmn, first_visited, ever_home, active_days, n_events,
        n_failed_events, n_calls, voice_minutes, n_data_sessions, bytes_total,
        gyration_sum, gyration_n, apns, visited, radio_mask, voice_mask, data_mask,
    ) = base
    for r in records:
        ever_home = ever_home or r.on_home_network
        if r.has_activity:
            active_days += 1
        n_events += r.n_events
        n_failed_events += r.n_failed_events
        n_calls += r.n_calls
        voice_minutes += r.voice_minutes
        n_data_sessions += r.n_data_sessions
        bytes_total += r.bytes_total
        if r.mobility is not None:
            gyration_sum += r.mobility.gyration_km
            gyration_n += 1
        # Most days add no new string: the sets are then kept, not copied.
        if not r.apns <= apns:
            apns = apns | r.apns
        if not r.visited_plmns <= visited:
            visited = visited | r.visited_plmns
        radio_mask |= r.radio_flags.mask
        voice_mask |= r.voice_flags.mask
        data_mask |= r.data_flags.mask
    return _Rollup(
        sim_plmn, first_visited, ever_home, active_days, n_events,
        n_failed_events, n_calls, voice_minutes, n_data_sessions, bytes_total,
        gyration_sum, gyration_n, apns, visited, radio_mask, voice_mask, data_mask,
    )


class CatalogBuilder:
    """Joins the three data sources into the devices-catalog."""

    def __init__(
        self,
        tac_db: TACDatabase,
        sector_catalog: SectorCatalog,
        labeler: RoamingLabeler,
        compute_mobility: bool = True,
    ) -> None:
        self._tac_db = tac_db
        self._labeler = labeler
        self._sector_table = SectorTable.of(sector_catalog) if compute_mobility else None
        self._observer_plmn = str(labeler.observer.plmn)
        # TAC-join memo: the catalog has far fewer models than the
        # population has devices, so each TAC is resolved once and the
        # (possibly None) result reused across devices and `summarize`
        # calls.  Lookup is deterministic; the memo cannot change a join.
        self._model_cache: Dict[int, Optional[DeviceModel]] = {}
        # Incremental state (see `update`/`snapshot`): each day's rows in
        # the builder's own pools, every device's minimum identity keys,
        # the device ids touched per day since the last snapshot, and the
        # records, rollups and summaries that snapshot left valid.
        self._pools = ColumnPools()
        self._days: Dict[int, _DayRows] = {}
        self._radio_keys: Dict[str, RadioKey] = {}
        self._service_keys: Dict[str, ServiceKey] = {}
        self._dirty: Dict[int, Set[int]] = {}
        self._records: Dict[str, List[DeviceDayRecord]] = {}
        self._rollups: Dict[str, _Rollup] = {}
        self._summaries: Dict[str, DeviceSummary] = {}
        #: Devices the last lenient finalization left out, each with the
        #: stage that raised.  A lenient one-shot build replaces it; a
        #: lenient snapshot updates the devices it finalizes, so a device
        #: leaves once a later snapshot builds it.
        self.quarantined: Dict[str, StageFailure] = {}

    # -- public API ----------------------------------------------------------

    def summarize(
        self, day_records: Iterable[DeviceDayRecord], tac_of: Dict[str, int]
    ) -> Dict[str, DeviceSummary]:
        """Roll daily records up into whole-window device summaries."""
        by_device: Dict[str, List[DeviceDayRecord]] = defaultdict(list)
        for record in day_records:
            by_device[record.device_id].append(record)
        return {
            device_id: self._summary(device_id, _roll_up(records), tac_of.get(device_id))
            for device_id, records in by_device.items()
        }

    def _summary(
        self, device_id: str, rollup: _Rollup, tac: Optional[int]
    ) -> DeviceSummary:
        """The device's summary from its rollup: its roaming label and
        its TAC's catalog join."""
        # A device never seen on the home network was only observed
        # through CDR/xDRs from partner networks: an outbound roamer.
        # min() (not next(iter(...))) keeps the pick independent of
        # frozenset iteration order, i.e. of PYTHONHASHSEED.
        observer = self._observer_plmn
        label = self._labeler.label(
            rollup.sim_plmn,
            observer if rollup.ever_home else min(rollup.first_visited, default=observer),
        )
        model_cache = self._model_cache
        if tac is None:
            model = None
        elif tac in model_cache:
            model = model_cache[tac]
        else:
            model = model_cache[tac] = self._tac_db.lookup(tac)
        return DeviceSummary(
            device_id,
            rollup.sim_plmn,
            label,
            rollup.active_days,
            rollup.n_events,
            rollup.n_failed_events,
            rollup.n_calls,
            rollup.voice_minutes,
            rollup.n_data_sessions,
            rollup.bytes_total,
            rollup.apns,
            rollup.visited,
            _FLAGS[rollup.radio_mask],
            _FLAGS[rollup.voice_mask],
            _FLAGS[rollup.data_mask],
            tac,
            model,
            rollup.gyration_sum / rollup.gyration_n if rollup.gyration_n else None,
        )

    # -- catalog kernel -------------------------------------------------------

    def _cells(
        self,
        radio: _RadioRows,
        radio_rows: np.ndarray,
        service: _ServiceRows,
        service_rows: np.ndarray,
        rank: np.ndarray,
        pools: ColumnPools,
    ) -> Tuple[np.ndarray, List[int], List[_CellFields]]:
        """The cells of one block, sorted by (device rank, day): their
        ranks, days and record fields.  ``radio_rows``/``service_rows``
        index the block's rows, sorted by (rank, day, timestamp, sector
        or duration)."""
        radio_rank = rank[radio.device[radio_rows]]
        radio_day = radio.day[radio_rows]
        service_rank = rank[service.device[service_rows]]
        service_day = service.day[service_rows]
        radio_starts = np.flatnonzero(_heads(radio_rank, radio_day))
        service_starts = np.flatnonzero(_heads(service_rank, service_day))

        # The cells either stream touches, sorted by (rank, day); each
        # run of either stream maps to its cell.
        run_rank = np.concatenate((radio_rank[radio_starts], service_rank[service_starts]))
        run_day = np.concatenate((radio_day[radio_starts], service_day[service_starts]))
        by_cell = np.lexsort((run_day, run_rank))
        head = _heads(run_rank[by_cell], run_day[by_cell])
        cell_of_run = np.empty(len(by_cell), dtype=np.intp)
        cell_of_run[by_cell] = np.cumsum(head) - 1
        radio_cell = cell_of_run[: len(radio_starts)]
        service_cell = cell_of_run[len(radio_starts):]
        firsts = by_cell[head]
        n_cells = len(firsts)

        lengths = np.diff(np.append(radio_starts, len(radio_rows)))
        success = _RESULT_IS_SUCCESS[radio.result[radio_rows]]
        interface = radio.interface[radio_rows]
        bits = np.where(success, _INTERFACE_RAT_BIT[interface], 0)
        voice_bits = np.where(_INTERFACE_IS_VOICE[interface], bits, 0)
        n_events = np.zeros(n_cells, dtype=np.int64)
        n_events[radio_cell] = lengths
        n_failed = np.zeros(n_cells, dtype=np.int64)
        n_failed[radio_cell] = lengths - np.add.reduceat(
            success, radio_starts, dtype=np.int64
        )
        radio_mask = np.zeros(n_cells, dtype=np.int64)
        radio_mask[radio_cell] = np.bitwise_or.reduceat(bits, radio_starts)
        voice_mask = np.zeros(n_cells, dtype=np.int64)
        voice_mask[radio_cell] = np.bitwise_or.reduceat(voice_bits, radio_starts)
        data_mask = np.zeros(n_cells, dtype=np.int64)
        data_mask[radio_cell] = np.bitwise_or.reduceat(bits ^ voice_bits, radio_starts)
        mobility: List[Optional[MobilityMetrics]] = [None] * n_cells
        if self._sector_table is not None:
            metrics = batch_daily_mobility(
                radio_starts,
                radio.timestamp[radio_rows],
                radio.sector[radio_rows],
                self._sector_table,
            )
            for cell, metric in zip(radio_cell.tolist(), metrics):
                mobility[cell] = metric

        row_cell = np.repeat(
            service_cell, np.diff(np.append(service_starts, len(service_rows)))
        )
        is_voice = _SERVICE_IS_VOICE[service.service[service_rows]]
        voice_cell = row_cell[is_voice]
        n_calls = np.bincount(voice_cell, minlength=n_cells)
        voice_minutes = np.zeros(n_cells, dtype=np.float64)
        if len(voice_cell):
            voice_minutes = np.bincount(
                voice_cell,
                weights=service.duration[service_rows[is_voice]] / 60.0,
                minlength=n_cells,
            )
        data_cell = row_cell[~is_voice]
        data_rows = service_rows[~is_voice]
        n_data = np.bincount(data_cell, minlength=n_cells)
        bytes_total = _byte_totals(data_cell, service.bytes_total[data_rows], n_cells)
        apn = service.apn[data_rows]
        named = apn != NULL_ID
        apns = _string_sets(data_cell[named], apn[named], pools.apns.strings, n_cells)

        plmns = pools.plmns.strings
        observer = self._observer_plmn
        # Looked up, not interned: no service row is on the observer's
        # network when the observer is absent from the pool; the id
        # past the pool stands for it then.
        observer_id = (
            pools.plmns.id_of(observer) if observer in pools.plmns else len(plmns)
        )
        visited = service.visited[service_rows]
        home = np.zeros(n_cells, dtype=bool)
        home[row_cell[visited == observer_id]] = True
        # Every radio event is on the observer's network.
        visited_sets = _string_sets(
            np.concatenate((radio_cell, row_cell)),
            np.concatenate((np.full(len(radio_cell), observer_id), visited)),
            plmns + (observer,),
            n_cells,
        )
        on_home = (n_events > 0) | home
        flags = _FLAGS.__getitem__
        fields: List[_CellFields] = list(zip(
            visited_sets, n_events.tolist(), n_failed.tolist(), n_calls.tolist(),
            voice_minutes.tolist(), n_data.tolist(), bytes_total, apns,
            map(flags, radio_mask.tolist()), map(flags, voice_mask.tolist()),
            map(flags, data_mask.tolist()), mobility, on_home.tolist(),
        ))
        return run_rank[firsts], run_day[firsts].tolist(), fields

    def _device_records(
        self,
        device_id: str,
        days: List[int],
        fields: List[_CellFields],
        lo: int,
        hi: int,
        sim_plmn: str,
    ) -> List[DeviceDayRecord]:
        """One device's day records, sorted by day: cells ``lo:hi`` of a
        kernel block."""
        return [
            DeviceDayRecord(device_id, days[i], sim_plmn, *fields[i])
            for i in range(lo, hi)
        ]

    def _derive(
        self,
        radio: _RadioRows,
        service: _ServiceRows,
        pools: ColumnPools,
        sims: Dict[str, str],
        failures: Optional[Dict[str, StageFailure]],
    ) -> Iterator[Tuple[str, List[DeviceDayRecord]]]:
        """The catalog kernel: each device's day records, in sorted
        device order, with its SIM from ``sims``.

        Device ids are ranked by their strings; rows are sorted once by
        (rank, day, timestamp, sector) and (rank, day, timestamp,
        duration) with :func:`_row_order` and cut into blocks of
        :data:`_BLOCK_DEVICES` devices, whose cells are derived
        together.  A device whose records raise propagates the error,
        unless ``failures`` is given: then it is left out and recorded
        there at the ``"catalog"`` stage.
        """
        names = pools.devices.strings
        seen = np.zeros(len(names), dtype=bool)
        seen[radio.device] = True
        seen[service.device] = True
        order: List[int] = sorted(np.flatnonzero(seen).tolist(), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.int32)
        rank[order] = np.arange(len(order))
        radio_rank = rank[radio.device]
        radio_order = _row_order(radio_rank, radio.timestamp, radio.sector)
        service_rank = rank[service.device]
        service_order = _row_order(service_rank, service.timestamp, service.duration)
        block_firsts = np.arange(0, len(order) + _BLOCK_DEVICES, _BLOCK_DEVICES)
        radio_edges = np.searchsorted(radio_rank[radio_order], block_firsts).tolist()
        service_edges = np.searchsorted(service_rank[service_order], block_firsts).tolist()
        del radio_rank, service_rank
        for block, first in enumerate(range(0, len(order), _BLOCK_DEVICES)):
            last = min(first + _BLOCK_DEVICES, len(order))
            ranks, days, fields = self._cells(
                radio,
                radio_order[radio_edges[block]:radio_edges[block + 1]],
                service,
                service_order[service_edges[block]:service_edges[block + 1]],
                rank,
                pools,
            )
            bounds = np.searchsorted(ranks, np.arange(first, last + 1)).tolist()
            for k in range(last - first):
                device_id = names[order[first + k]]
                try:
                    records = self._device_records(
                        device_id, days, fields, bounds[k], bounds[k + 1],
                        sims[device_id],
                    )
                except Exception as exc:
                    if failures is None:
                        raise
                    failures[device_id] = StageFailure.of(device_id, "catalog", exc)
                    continue
                yield device_id, records

    def _summarize_devices(
        self,
        folds: Iterable[Tuple[str, Optional[_Rollup], Sequence[DeviceDayRecord]]],
        tac_of: Mapping[str, Optional[int]],
        failures: Dict[str, StageFailure],
        lenient: bool,
    ) -> Dict[str, Tuple[_Rollup, DeviceSummary]]:
        """Each device's rollup, its ``records`` folded onto its base,
        and its summary.  A device that raises propagates the error, or
        with ``lenient`` is left out and kept in ``failures`` at the
        ``"summary"`` stage."""
        done: Dict[str, Tuple[_Rollup, DeviceSummary]] = {}
        for device_id, base, records in folds:
            try:
                rollup = _roll_up(records, base)
                done[device_id] = rollup, self._summary(
                    device_id, rollup, tac_of.get(device_id)
                )
            except Exception as exc:
                if not lenient:
                    raise
                failures[device_id] = StageFailure.of(device_id, "summary", exc)
        return done

    def _day_records(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
        failures: Optional[Dict[str, StageFailure]],
    ) -> Tuple[Dict[str, List[DeviceDayRecord]], Dict[str, int]]:
        """The kernel over both stores: each device's day records, in
        sorted device order, plus the TACs."""
        pools = radio_events.pools
        if pools is not service_records.pools:
            raise ValueError("columnar streams must share one ColumnPools")
        radio_keys: Dict[str, RadioKey] = {}
        service_keys: Dict[str, ServiceKey] = {}
        _merge_min_keys(radio_events, service_records, radio_keys, service_keys)
        sims = {device_id: key[6] for device_id, key in service_keys.items()}
        sims.update((device_id, key[6]) for device_id, key in radio_keys.items())
        by_device = dict(
            self._derive(
                _radio_rows(radio_events),
                _service_rows(service_records),
                pools,
                sims,
                failures,
            )
        )
        tac_of = {
            device_id: radio_keys[device_id][5]
            for device_id in by_device
            if device_id in radio_keys
        }
        return by_device, tac_of

    def build_day_records(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, int]]:
        """The daily devices-catalog, sorted by (device, day), plus each
        device's TAC (devices seen only in CDR/xDRs have none)."""
        by_device, tac_of = self._day_records(radio_events, service_records, None)
        return list(chain.from_iterable(by_device.values())), tac_of

    def build_from_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
        lenient: bool = False,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """One-shot: daily records plus per-device summaries.

        Runs the catalog kernel over interned int columns.  The result
        is a function of the multiset of input rows, not of their order.

        A device whose day records or summary raise propagates the
        error; with ``lenient=True`` it is left out instead, and
        :attr:`quarantined` becomes this build's failures.
        """
        failures: Dict[str, StageFailure] = {}
        by_device, tac_of = self._day_records(
            radio_events, service_records, failures if lenient else None
        )
        done = self._summarize_devices(
            ((device_id, None, records) for device_id, records in by_device.items()),
            tac_of,
            failures,
            lenient,
        )
        if lenient:
            self.quarantined = failures
        return (
            [r for device_id in done for r in by_device[device_id]],
            {device_id: summary for device_id, (_, summary) in done.items()},
        )

    #: The one-shot build under its short name, which ``bench/trace.py``
    #: also times.
    build = build_from_columns

    # -- incremental engine ---------------------------------------------------

    def update(
        self,
        day: int,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> None:
        """Fold one day's delta into the incremental catalog, in
        O(delta).

        The delta's rows join the day's rows (re-interned into the
        builder's pools, only the columns the kernel reads), its devices'
        minimum identity keys merge into theirs, and its (device, day)
        cells are marked for the next :meth:`snapshot`; nothing is
        derived here.  Because the kernel is order-free, any split of
        the rows into deltas, fed in any order, snapshots to
        :meth:`build_from_columns` over all of them.  Rows for any other
        day raise ``ValueError``.
        """
        for store_days in (radio_events.days, service_records.days):
            days = _view(store_days)
            if len(days) and (days.min() != day or days.max() != day):
                raise ValueError(f"update({day}) received rows for other days")
        pools = radio_events.pools
        if pools is not service_records.pools:
            raise ValueError("columnar streams must share one ColumnPools")
        own = self._pools
        radio = _radio_rows(radio_events)
        service = _service_rows(service_records)
        devices = _own_ids(
            np.concatenate((radio.device, service.device)), pools.devices, own.devices
        )
        radio_device = devices[: len(radio.device)]
        service_device = devices[len(radio.device):]
        radio_chunk = (
            radio_device, radio.timestamp.copy(), radio.sector.copy(),
            radio.interface.copy(), radio.result.copy(),
        )
        service_chunk = (
            service_device, service.timestamp.copy(), service.service.copy(),
            service.duration.copy(), service.bytes_total.copy(),
            _own_ids(service.visited, pools.plmns, own.plmns),
            _own_ids(service.apn, pools.apns, own.apns),
        )

        _merge_min_keys(
            radio_events, service_records, self._radio_keys, self._service_keys
        )
        rows = self._days.get(day)
        if rows is None:
            rows = self._days[day] = _DayRows()
        rows.radio.append(radio_chunk)
        rows.service.append(service_chunk)
        touched = np.unique(devices).tolist()
        if touched:
            self._dirty.setdefault(day, set()).update(touched)

    def _refresh(self, lenient: bool) -> None:
        """Re-derive the dirty device-days and re-summarize their devices.

        A device's days are re-derived when its cells are dirty, every
        day when its SIM moved (its kept records carry the old one) or
        when it was left out before (it kept no records).  Every dirty
        day's rows of its dirty devices go through one kernel call.  A
        device whose fresh days all follow its kept ones folds them onto
        its kept rollup; any other rolls up all its records again.
        State changes only after every summary exists, so a raise leaves
        the builder as it was and the next snapshot retries.
        """
        names = self._pools.devices.strings
        days_of: Dict[str, Set[int]] = defaultdict(set)
        for day, devices in self._dirty.items():
            for device in devices:
                days_of[names[device]].add(day)
        identities = {
            device_id: _identity(self._radio_keys, self._service_keys, device_id)
            for device_id in days_of
        }
        for device_id, days in days_of.items():
            kept = self._records.get(device_id)
            if kept is None:
                if device_id in self.quarantined:
                    days.update(self._days)
            elif kept[0].sim_plmn != identities[device_id][0]:
                days.update(record.day for record in kept)
        devices_of: Dict[int, List[int]] = defaultdict(list)
        id_of = self._pools.devices.id_of
        for device_id, days in days_of.items():
            for day in days:
                devices_of[day].append(id_of(device_id))

        gathered = [
            self._days[day].gather(day, devices) for day, devices in devices_of.items()
        ]
        radio = _RadioRows(*_joined([rows for rows, _ in gathered]))
        service = _ServiceRows(*_joined([rows for _, rows in gathered]))
        del gathered
        failures: Dict[str, StageFailure] = {}
        by_device: Dict[str, List[DeviceDayRecord]] = {}
        folds: List[Tuple[str, Optional[_Rollup], List[DeviceDayRecord]]] = []
        for device_id, records in self._derive(
            radio,
            service,
            self._pools,
            {device_id: sim for device_id, (sim, _) in identities.items()},
            failures if lenient else None,
        ):
            kept = self._records.get(device_id)
            days = days_of[device_id]
            if kept is not None and kept[-1].day < min(days):
                by_device[device_id] = kept + records
                folds.append((device_id, self._rollups[device_id], records))
            else:
                if kept is not None:
                    records = [r for r in kept if r.day not in days] + records
                    records.sort(key=_DAY)
                by_device[device_id] = records
                folds.append((device_id, None, records))
        del radio, service
        done = self._summarize_devices(
            folds,
            {device_id: tac for device_id, (_, tac) in identities.items()},
            failures,
            lenient,
        )

        for device_id in identities:
            failure = failures.get(device_id)
            if failure is None:
                self.quarantined.pop(device_id, None)
                self._records[device_id] = by_device[device_id]
                self._rollups[device_id], self._summaries[device_id] = done[device_id]
            else:
                self.quarantined[device_id] = failure
                self._records.pop(device_id, None)
                self._rollups.pop(device_id, None)
                self._summaries.pop(device_id, None)
        self._dirty = {}

    def snapshot(
        self, lenient: bool = False
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """The incremental catalog as of the last :meth:`update` —
        records sorted by (device, day), summaries in sorted device
        order, exactly as :meth:`build_from_columns` emits them.

        Only the device-days touched since the last snapshot run
        through the kernel, in one call; finding them reads every row of
        each dirty day.  A device whose day records or summary raise
        propagates the error; with ``lenient=True`` it is left out
        instead and listed in :attr:`quarantined`.
        """
        if self._dirty:
            self._refresh(lenient)
        records = self._records
        summaries = self._summaries
        return (
            [r for device_id in sorted(records) for r in records[device_id]],
            {device_id: summaries[device_id] for device_id in sorted(summaries)},
        )
