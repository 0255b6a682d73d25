"""The daily devices-catalog: the paper's central data product (§4.1).

"We combine the three data sources to create a daily list of active
devices and associated properties and traffic characteristics …  Each
record in the generated catalog reports a device ID, total number of
events, calls, bytes seen, SIM MCC/MNC, list of visited MCC-MNC, list of
APN strings, device manufacturer, device model, device OS", radio-flags
and mobility metrics.

:class:`CatalogBuilder` scans radio events and CDR/xDR records, interned
as columns (:mod:`repro.columnar`), into per-(device, day) accumulators,
joins the TAC catalog for device properties and the sector catalog for
mobility, and emits
:class:`DeviceDayRecord` rows plus whole-window :class:`DeviceSummary`
aggregates (the unit most of the paper's figures are computed over).

A summary and its roaming label aggregate a device over the whole
window, so whether a device can be finalized is decided here, once per
device, in every execution mode: in lenient mode a device whose day
records or summary raise is left out and kept as a
:class:`StageFailure` in :attr:`CatalogBuilder.quarantined`.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cellular.rats import RadioFlags
from repro.cellular.sectors import SectorCatalog
from repro.cellular.tac_db import DeviceModel, TACDatabase
from repro.columnar.store import NULL_ID, ColumnarRadioEvents, ColumnarServiceRecords
from repro.core.mobility import MobilityMetrics, daily_mobility_from_pairs
from repro.core.roaming import RoamingLabel, RoamingLabeler
from repro.signaling.cdr import SERVICE_TYPES, ServiceType
from repro.signaling.events import RADIO_INTERFACES
from repro.signaling.procedures import MESSAGE_TYPES, RESULT_CODES

#: Scan tables, indexed by the canonical enum orders the stores
#: encode against: per-result success bit, per-interface voice bit and
#: RAT mask.  Tuple indexing replaces per-row property chains and enum
#: dict lookups in the hot kernel.
_RESULT_IS_SUCCESS: Tuple[bool, ...] = tuple(code.is_success for code in RESULT_CODES)
_INTERFACE_IS_VOICE: Tuple[bool, ...] = tuple(
    interface.is_voice for interface in RADIO_INTERFACES
)
_INTERFACE_RAT_BIT: Tuple[int, ...] = tuple(
    RadioFlags.from_rats((interface.rat,)).mask for interface in RADIO_INTERFACES
)
_SERVICE_IS_VOICE: Tuple[bool, ...] = tuple(
    service is ServiceType.VOICE for service in SERVICE_TYPES
)


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


class _Cell:
    """Order-free state of one (device, day).

    Counts add, RAT masks OR and string sets union, so these merge as
    they come.  The order-sensitive parts keep their values instead:
    mobility its ``(timestamp, sector_id)`` pairs and voice minutes its
    ``(timestamp, duration)`` pairs, sorted once when the cell is
    finalized.  Any grouping and order of the same rows therefore gives
    the same cell and the same record.  Strings are stored as strings,
    so a cell outlives the pools of the columns it was scanned from.
    """

    __slots__ = (
        "n_events",
        "n_failed",
        "radio_mask",
        "voice_mask",
        "data_mask",
        "timestamps",
        "sectors",
        "n_calls",
        "voice",
        "n_data_sessions",
        "bytes_total",
        "apns",
        "visited",
        "home_service",
        "radio_ts",
        "radio_row",
        "service_ts",
        "service_row",
    )

    def __init__(self) -> None:
        self.n_events = 0
        self.n_failed = 0
        self.radio_mask = 0
        self.voice_mask = 0
        self.data_mask = 0
        self.timestamps = array("d")
        self.sectors = array("q")
        self.n_calls = 0
        #: Flattened ``(timestamp, duration)`` pairs of the voice rows.
        self.voice = array("d")
        self.n_data_sessions = 0
        self.bytes_total = 0
        self.apns: Set[str] = set()
        #: Visited PLMNs of service rows; finalization adds the observer
        #: to a cell with radio events.
        self.visited: Set[str] = set()
        #: A service row was on the observer's network.
        self.home_service = False
        # Scan only: the row (and its timestamp) holding this cell's
        # minimum identity key so far, so a key tuple is built only for
        # a row that ties on timestamp.
        self.radio_ts = math.inf
        self.radio_row = -1
        self.service_ts = math.inf
        self.service_row = -1

    def merge(self, other: "_Cell") -> None:
        """Fold ``other`` (the same device and day) into this cell."""
        self.n_events += other.n_events
        self.n_failed += other.n_failed
        self.radio_mask |= other.radio_mask
        self.voice_mask |= other.voice_mask
        self.data_mask |= other.data_mask
        self.timestamps.extend(other.timestamps)
        self.sectors.extend(other.sectors)
        self.n_calls += other.n_calls
        self.voice.extend(other.voice)
        self.n_data_sessions += other.n_data_sessions
        self.bytes_total += other.bytes_total
        self.apns |= other.apns
        self.visited |= other.visited
        self.home_service = self.home_service or other.home_service


_RADIO_TS = attrgetter("radio_ts")
_SERVICE_TS = attrgetter("service_ts")


class _Device:
    """A device's cells by day, plus its identity: the minimum radio and
    service keys over all its rows."""

    __slots__ = ("cells", "radio_key", "service_key")

    def __init__(self) -> None:
        self.cells: Dict[int, _Cell] = {}
        self.radio_key: Optional[RadioKey] = None
        self.service_key: Optional[ServiceKey] = None

    def merge(self, other: "_Device") -> None:
        """Fold ``other`` (the same device) into this device."""
        for day, cell in other.cells.items():
            current = self.cells.get(day)
            if current is None:
                self.cells[day] = cell
            else:
                current.merge(cell)
        if other.radio_key is not None and (
            self.radio_key is None or other.radio_key < self.radio_key
        ):
            self.radio_key = other.radio_key
        if other.service_key is not None and (
            self.service_key is None or other.service_key < self.service_key
        ):
            self.service_key = other.service_key

    def identity(self) -> Tuple[str, Optional[int]]:
        """(SIM, TAC) from the minimum radio key, else the SIM of the
        minimum service key and no TAC."""
        if self.radio_key is not None:
            return self.radio_key[6], self.radio_key[5]
        if self.service_key is None:  # unreachable: every device has a row
            raise RuntimeError("device has cells but no SIM")
        return self.service_key[6], None


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
        self._sectors = sector_catalog
        self._labeler = labeler
        self._compute_mobility = compute_mobility
        self._observer_plmn = str(labeler.observer.plmn)
        # TAC-join memo: the catalog has far fewer models than the
        # population has devices, so each TAC is resolved once and the
        # (possibly None) result reused across devices and `summarize`
        # calls.  Lookup is deterministic; the memo cannot change a join.
        self._model_cache: Dict[int, Optional[DeviceModel]] = {}
        # Incremental state (see `update`/`snapshot`): every device's
        # cells and identity, the days folded into since the last
        # snapshot, and the records and summaries that snapshot left
        # valid.
        self._devices: Dict[str, _Device] = {}
        self._dirty: Dict[str, Set[int]] = {}
        self._records: Dict[str, List[DeviceDayRecord]] = {}
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

        summaries: Dict[str, DeviceSummary] = {}
        model_cache = self._model_cache
        for device_id, records in by_device.items():
            # One pass over the device's day records accumulates every
            # aggregate; the apns/visited frozensets are built once at
            # the end rather than re-derived per record.
            ever_home = False
            active_days = 0
            n_events = n_failed_events = n_calls = n_data_sessions = 0
            voice_minutes = 0.0
            bytes_total = 0
            gyration_sum = 0.0
            gyration_n = 0
            apns: Set[str] = set()
            visited: Set[str] = set()
            flags = RadioFlags()
            voice_flags = RadioFlags()
            data_flags = RadioFlags()
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
                apns.update(r.apns)
                visited.update(r.visited_plmns)
                flags = flags.union(r.radio_flags)
                voice_flags = voice_flags.union(r.voice_flags)
                data_flags = data_flags.union(r.data_flags)
            # A device never seen on the home network was only observed
            # through CDR/xDRs from partner networks: an outbound roamer.
            # min() (not next(iter(...))) keeps the pick independent of
            # frozenset iteration order, i.e. of PYTHONHASHSEED.
            any_visited = min(records[0].visited_plmns, default=self._observer_plmn)
            label = self._labeler.label(
                records[0].sim_plmn,
                self._observer_plmn if ever_home else any_visited,
            )
            tac = tac_of.get(device_id)
            if tac is None:
                model = None
            elif tac in model_cache:
                model = model_cache[tac]
            else:
                model = self._tac_db.lookup(tac)
                model_cache[tac] = model
            summaries[device_id] = DeviceSummary(
                device_id=device_id,
                sim_plmn=records[0].sim_plmn,
                label=label,
                active_days=active_days,
                n_events=n_events,
                n_failed_events=n_failed_events,
                n_calls=n_calls,
                voice_minutes=voice_minutes,
                n_data_sessions=n_data_sessions,
                bytes_total=bytes_total,
                apns=frozenset(apns),
                visited_plmns=frozenset(visited),
                radio_flags=flags,
                voice_flags=voice_flags,
                data_flags=data_flags,
                tac=tac,
                model=model,
                mean_gyration_km=(
                    gyration_sum / gyration_n if gyration_n else None
                ),
            )
        return summaries

    # -- catalog kernel -------------------------------------------------------

    def _scan(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Dict[str, _Device]:
        """Single-pass scan over interned int columns into per-device
        cells by day, with each device's identity keys.

        Cells are keyed ``(day << 32) | device_id`` during the scan (pool
        ids are dense and far below 2**32, so one packed int replaces a
        (device, day) tuple key).  Both stores must share one
        :class:`ColumnPools` so device/PLMN ids agree across streams;
        the pools are only read, never extended.
        """
        pools = radio_events.pools
        if pools is not service_records.pools:
            raise ValueError("columnar streams must share one ColumnPools")
        cells: Dict[int, _Cell] = {}
        get = cells.get
        success_of = _RESULT_IS_SUCCESS
        voice_of = _INTERFACE_IS_VOICE
        rat_bit_of = _INTERFACE_RAT_BIT
        plmns = pools.plmns.strings
        track_mobility = self._compute_mobility

        timestamps = radio_events.timestamps
        sector_ids = radio_events.sector_ids
        interfaces = radio_events.interfaces
        event_types = radio_events.event_types
        results = radio_events.results
        tacs = radio_events.tacs
        sims = radio_events.sim_plmns
        rows = zip(
            radio_events.device_ids,
            radio_events.days,
            timestamps,
            results,
            interfaces,
            sector_ids,
        )

        def radio_key(i: int) -> RadioKey:
            return (
                timestamps[i], sector_ids[i], _INTERFACE_VALUES[interfaces[i]],
                _MESSAGE_VALUES[event_types[i]], _RESULT_VALUES[results[i]],
                tacs[i], plmns[sims[i]],
            )

        for i, (dev, day, ts, result, interface, sector) in enumerate(rows):
            key = (day << 32) | dev
            cell = get(key)
            if cell is None:
                cell = cells[key] = _Cell()
            if ts <= cell.radio_ts and (
                ts < cell.radio_ts or radio_key(i) < radio_key(cell.radio_row)
            ):
                cell.radio_ts, cell.radio_row = ts, i
            if success_of[result]:
                bit = rat_bit_of[interface]
                cell.radio_mask |= bit
                if voice_of[interface]:
                    cell.voice_mask |= bit
                else:
                    cell.data_mask |= bit
            else:
                cell.n_failed += 1
            cell.n_events += 1
            if track_mobility:
                cell.timestamps.append(ts)
                cell.sectors.append(sector)

        svc_voice_of = _SERVICE_IS_VOICE
        plmn_pool = pools.plmns
        # Looked up, not interned: no service row is on the home network
        # when the observer is absent from the pool.
        observer_id = (
            plmn_pool.id_of(self._observer_plmn)
            if self._observer_plmn in plmn_pool
            else NULL_ID
        )
        apn_strings = pools.apns.strings
        svc_timestamps = service_records.timestamps
        durations = service_records.durations
        byte_counts = service_records.bytes_totals
        apn_ids = service_records.apns
        svc_sims = service_records.sim_plmns
        services = service_records.services
        visited_plmns = service_records.visited_plmns
        svc_rows = zip(
            service_records.device_ids,
            service_records.days,
            svc_timestamps,
            services,
            visited_plmns,
        )

        def service_key(i: int) -> ServiceKey:
            apn = apn_ids[i]
            return (
                svc_timestamps[i], _SERVICE_VALUES[services[i]], durations[i],
                byte_counts[i], plmns[visited_plmns[i]],
                "" if apn == NULL_ID else apn_strings[apn], plmns[svc_sims[i]],
            )

        for i, (dev, day, ts, service, visited) in enumerate(svc_rows):
            key = (day << 32) | dev
            cell = get(key)
            if cell is None:
                cell = cells[key] = _Cell()
            if ts <= cell.service_ts and (
                ts < cell.service_ts or service_key(i) < service_key(cell.service_row)
            ):
                cell.service_ts, cell.service_row = ts, i
            cell.visited.add(plmns[visited])
            if visited == observer_id:
                cell.home_service = True
            if svc_voice_of[service]:
                cell.n_calls += 1
                cell.voice.append(ts)
                cell.voice.append(durations[i])
            else:
                cell.n_data_sessions += 1
                cell.bytes_total += byte_counts[i]
                apn = apn_ids[i]
                if apn != NULL_ID:
                    cell.apns.add(apn_strings[apn])

        device_of = pools.devices.lookup
        devices: Dict[str, _Device] = {}
        for key, cell in cells.items():
            device_id = device_of(key & 0xFFFFFFFF)
            device = devices.get(device_id)
            if device is None:
                device = devices[device_id] = _Device()
            device.cells[key >> 32] = cell
        # A device's cells are distinct days, so their candidate rows
        # never tie on timestamp: the earliest one holds its minimum key.
        for device in devices.values():
            day_cells = device.cells.values()
            radio = min(
                (c for c in day_cells if c.radio_row >= 0), key=_RADIO_TS, default=None
            )
            service = min(
                (c for c in day_cells if c.service_row >= 0),
                key=_SERVICE_TS,
                default=None,
            )
            if radio is not None:
                device.radio_key = radio_key(radio.radio_row)
            if service is not None:
                device.service_key = service_key(service.service_row)
        return devices

    def _record(
        self, device_id: str, day: int, sim_plmn: str, cell: _Cell
    ) -> DeviceDayRecord:
        """Finalize one cell into a catalog row.

        Voice minutes add ``duration / 60`` left to right over the voice
        rows sorted by ``(timestamp, duration)``; mobility sorts its
        ``(timestamp, sector_id)`` pairs (in the dwell estimator).
        """
        voice_minutes = 0.0
        if cell.n_calls:
            pairs = iter(cell.voice)
            for _, duration in sorted(zip(pairs, pairs)):
                voice_minutes += duration / 60.0
        if cell.n_events:
            # Every radio event is on the observer's network.
            cell.visited.add(self._observer_plmn)
        return DeviceDayRecord(
            device_id=device_id,
            day=day,
            sim_plmn=sim_plmn,
            visited_plmns=frozenset(cell.visited),
            n_events=cell.n_events,
            n_failed_events=cell.n_failed,
            n_calls=cell.n_calls,
            voice_minutes=voice_minutes,
            n_data_sessions=cell.n_data_sessions,
            bytes_total=cell.bytes_total,
            apns=frozenset(cell.apns),
            radio_flags=RadioFlags(cell.radio_mask),
            voice_flags=RadioFlags(cell.voice_mask),
            data_flags=RadioFlags(cell.data_mask),
            mobility=(
                daily_mobility_from_pairs(
                    zip(cell.timestamps, cell.sectors), self._sectors
                )
                if cell.timestamps
                else None
            ),
            on_home_network=bool(cell.n_events) or cell.home_service,
        )

    def _device_records(
        self,
        device_id: str,
        device: _Device,
        clean: Mapping[int, DeviceDayRecord],
    ) -> Tuple[List[DeviceDayRecord], Optional[int]]:
        """One device's day records, sorted by day, and its TAC.

        A record in ``clean`` (day -> record of a cell untouched since it
        was built) is reused while the device's SIM is unchanged; every
        other cell is finalized.
        """
        sim_plmn, tac = device.identity()
        cells = device.cells
        records: List[DeviceDayRecord] = []
        for day in sorted(cells):
            record = clean.get(day)
            if record is None or record.sim_plmn != sim_plmn:
                record = self._record(device_id, day, sim_plmn, cells[day])
            records.append(record)
        return records, tac

    def _day_records(
        self,
        devices: Dict[str, _Device],
        clean: Mapping[str, Mapping[int, DeviceDayRecord]],
        failures: Optional[Dict[str, StageFailure]],
    ) -> Tuple[Dict[str, List[DeviceDayRecord]], Dict[str, int]]:
        """Each device's day records, in sorted device order, plus the
        TACs.

        ``devices`` is consumed: popping each device as its records are
        built frees its cells (when nothing else holds them), so cells
        and records never sit in memory side by side.  A raise
        propagates, unless ``failures`` is given: then the device is
        left out and recorded there at the ``"catalog"`` stage.
        """
        by_device: Dict[str, List[DeviceDayRecord]] = {}
        tac_of: Dict[str, int] = {}
        no_records: Dict[int, DeviceDayRecord] = {}
        for device_id in sorted(devices):
            device = devices.pop(device_id)
            try:
                records, tac = self._device_records(
                    device_id, device, clean.get(device_id, no_records)
                )
            except Exception as exc:
                if failures is None:
                    raise
                failures[device_id] = StageFailure.of(device_id, "catalog", exc)
                continue
            by_device[device_id] = records
            if tac is not None:
                tac_of[device_id] = tac
        return by_device, tac_of

    def _finalize(
        self,
        devices: Dict[str, _Device],
        clean: Mapping[str, Mapping[int, DeviceDayRecord]],
        lenient: bool,
    ) -> Tuple[
        Dict[str, List[DeviceDayRecord]],
        Dict[str, DeviceSummary],
        Dict[str, StageFailure],
    ]:
        """Day records and summaries of ``devices`` (consumed), and the
        devices lenient mode left out.

        The one finalization both the one-shot build and
        :meth:`snapshot` run.  Each device's day records are built (stage
        ``"catalog"``), then one batch :meth:`summarize` runs; if it
        raises in lenient mode, devices are summarized one at a time and
        each that raises is left out at stage ``"summary"``.  In strict
        mode every raise propagates.
        """
        failures: Dict[str, StageFailure] = {}
        by_device, tac_of = self._day_records(
            devices, clean, failures if lenient else None
        )
        try:
            summaries = self.summarize(chain.from_iterable(by_device.values()), tac_of)
        except Exception:
            if not lenient:
                raise
            summaries = {}
            for device_id in list(by_device):
                try:
                    summaries.update(self.summarize(by_device[device_id], tac_of))
                except Exception as exc:
                    failures[device_id] = StageFailure.of(device_id, "summary", exc)
                    del by_device[device_id]
        return by_device, summaries, failures

    def build_day_records(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, int]]:
        """The daily devices-catalog, sorted by (device, day), plus each
        device's TAC (devices seen only in CDR/xDRs have none)."""
        by_device, tac_of = self._day_records(
            self._scan(radio_events, service_records), {}, None
        )
        return list(chain.from_iterable(by_device.values())), tac_of

    def build_from_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
        lenient: bool = False,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """One-shot: daily records plus per-device summaries.

        Scans interned int columns: no per-event property calls, no
        string key hashing, and one :class:`RadioFlags` per (device,
        day) cell instead of one per successful event.  The result is a
        function of the multiset of input rows, not of their order.

        A device whose day records or summary raise propagates the
        error; with ``lenient=True`` it is left out instead, and
        :attr:`quarantined` becomes this build's failures.
        """
        by_device, summaries, failures = self._finalize(
            self._scan(radio_events, service_records), {}, lenient
        )
        if lenient:
            self.quarantined = failures
        return list(chain.from_iterable(by_device.values())), summaries

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

        The delta's cells merge into the day's existing cells (a cell
        first seen here is adopted as scanned) and are marked for the
        next :meth:`snapshot`; nothing is finalized or summarized here.
        Because cells are order-free, any split of the rows into deltas,
        fed in any order, snapshots to :meth:`build_from_columns` over
        all of them.  Rows for any other day raise ``ValueError``.
        """
        for store_days in (radio_events.days, service_records.days):
            if len(store_days) and (
                min(store_days) != day or max(store_days) != day
            ):
                raise ValueError(f"update({day}) received rows for other days")
        devices = self._devices
        dirty = self._dirty
        for device_id, delta in self._scan(radio_events, service_records).items():
            device = devices.get(device_id)
            if device is None:
                devices[device_id] = delta
            else:
                device.merge(delta)
            dirty.setdefault(device_id, set()).add(day)

    def _refresh(self, lenient: bool) -> None:
        """Finalize the dirty devices and re-summarize them.

        Identity is re-resolved per dirty device; a day record is rebuilt
        when its cell is dirty, or when the device's SIM moved.  State
        changes only after every summary exists, so a raise leaves the
        builder as it was and the next snapshot retries.
        """
        dirty = self._dirty
        clean = {
            device_id: {
                r.day: r for r in self._records.get(device_id, ()) if r.day not in days
            }
            for device_id, days in dirty.items()
        }
        fresh, summaries, failures = self._finalize(
            {device_id: self._devices[device_id] for device_id in dirty},
            clean,
            lenient,
        )
        for device_id in dirty:
            failure = failures.get(device_id)
            if failure is None:
                self.quarantined.pop(device_id, None)
                self._records[device_id] = fresh[device_id]
                self._summaries[device_id] = summaries[device_id]
            else:
                self.quarantined[device_id] = failure
                self._records.pop(device_id, None)
                self._summaries.pop(device_id, None)
        self._dirty = {}

    def snapshot(
        self, lenient: bool = False
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """The incremental catalog as of the last :meth:`update` —
        records sorted by (device, day), summaries in sorted device
        order, exactly as :meth:`build_from_columns` emits them.

        Only the cells touched since the last snapshot are finalized.  A
        device whose day records or summary raise propagates the error;
        with ``lenient=True`` it is left out instead and listed in
        :attr:`quarantined`.
        """
        if self._dirty:
            self._refresh(lenient)
        records = self._records
        summaries = self._summaries
        return (
            [r for device_id in sorted(records) for r in records[device_id]],
            {device_id: summaries[device_id] for device_id in sorted(summaries)},
        )
