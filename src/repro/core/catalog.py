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
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cellular.rats import RadioFlags
from repro.cellular.sectors import SectorCatalog
from repro.cellular.tac_db import DeviceModel, TACDatabase
from repro.columnar.store import NULL_ID, ColumnarRadioEvents, ColumnarServiceRecords
from repro.core.mobility import MobilityMetrics, daily_mobility_from_pairs
from repro.core.roaming import RoamingLabel, RoamingLabeler
from repro.signaling.cdr import SERVICE_TYPES, ServiceType
from repro.signaling.events import RADIO_INTERFACES
from repro.signaling.procedures import RESULT_CODES

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


@dataclass(frozen=True)
class _DayCell:
    """Immutable, pool-independent (device, day) state for the
    incremental engine.

    A cell captures everything :class:`DeviceDayRecord` needs *except*
    the resolved SIM identity (which depends on other days), plus the
    per-day identity candidates used to re-resolve it.  Cells compare by
    value, which is what lets :meth:`CatalogBuilder.update` skip devices
    whose day slice re-accumulated to the same state.
    """

    n_events: int
    n_failed_events: int
    radio_mask: int
    voice_mask: int
    data_mask: int
    n_calls: int
    voice_minutes: float
    n_data_sessions: int
    bytes_total: int
    apns: FrozenSet[str]
    visited_plmns: FrozenSet[str]
    on_home_network: bool
    mobility: Optional[MobilityMetrics]
    #: SIM/TAC of this day's first radio event (None: no radio this day).
    sim_radio: Optional[str]
    tac: Optional[int]
    #: SIM of this day's first service record (identity fallback for
    #: devices that never touch the home radio network).
    sim_service: Optional[str]


@dataclass(frozen=True)
class CatalogUpdate:
    """What one :meth:`CatalogBuilder.update` call actually changed."""

    day: int
    changed_devices: Tuple[str, ...]
    n_devices: int

    @property
    def n_changed(self) -> int:
        return len(self.changed_devices)


class _ColAcc:
    """Mutable per-(device, day) state for the catalog kernel.

    It never buffers event objects: radio flags fold into plain int
    masks during the scan (one :class:`RadioFlags` is constructed per
    cell at finalization, not per event), strings stay interned ids, and
    mobility keeps only the radio row indices; the ``(timestamp,
    sector_id)`` pairs the dwell estimator needs are gathered from the
    columns when the cell is finalized.
    """

    __slots__ = (
        "n_events",
        "n_failed",
        "radio_mask",
        "voice_mask",
        "data_mask",
        "radio_rows",
        "n_calls",
        "voice_minutes",
        "n_data_sessions",
        "bytes_total",
        "apn_ids",
        "visited_ids",
        "on_home",
        "sim_radio_id",
        "tac",
        "sim_service_id",
    )

    def __init__(self) -> None:
        self.n_events = 0
        self.n_failed = 0
        self.radio_mask = 0
        self.voice_mask = 0
        self.data_mask = 0
        self.radio_rows = array("q")
        self.n_calls = 0
        self.voice_minutes = 0.0
        self.n_data_sessions = 0
        self.bytes_total = 0
        self.apn_ids: Set[int] = set()
        self.visited_ids: Set[int] = set()
        self.on_home = False
        # -1 = unset; SIM pool ids are always >= 0 when present.
        self.sim_radio_id = -1
        self.tac = -1
        self.sim_service_id = -1


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
        # Incremental-engine state (see `update`/`snapshot`): per-day
        # cell maps, the day set each device was seen on, and the cached
        # records/summaries the last update left valid.
        self._inc_cells: Dict[int, Dict[str, _DayCell]] = {}
        self._inc_device_days: Dict[str, Set[int]] = {}
        self._inc_records: Dict[Tuple[str, int], DeviceDayRecord] = {}
        self._inc_summaries: Dict[str, DeviceSummary] = {}

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

    def _accumulate_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[Dict[int, _ColAcc], Dict[int, int], Dict[int, int]]:
        """Single-pass scan over interned int columns.

        Returns accumulators keyed ``(day << 32) | device_id`` (pool ids
        are dense and far below 2**32, so one packed int replaces a
        (device, day) tuple key) plus, per device id, the row index of
        its first radio event and first service record: a device's SIM
        and TAC come from its first radio event in stream order, or from
        its first service record when it has no radio events.  Both
        stores must share one :class:`ColumnPools` so device/PLMN ids
        agree across streams.
        """
        if radio_events.pools is not service_records.pools:
            raise ValueError("columnar streams must share one ColumnPools")
        accs: Dict[int, _ColAcc] = {}
        first_radio: Dict[int, int] = {}
        first_service: Dict[int, int] = {}
        get = accs.get
        success_of = _RESULT_IS_SUCCESS
        voice_of = _INTERFACE_IS_VOICE
        rat_bit_of = _INTERFACE_RAT_BIT
        pools = radio_events.pools
        observer_id = pools.plmns.intern(self._observer_plmn)
        track_mobility = self._compute_mobility

        sims = radio_events.sim_plmns
        tacs = radio_events.tacs
        rows = zip(
            radio_events.device_ids,
            radio_events.days,
            radio_events.results,
            radio_events.interfaces,
        )
        for i, (dev, day, result, interface) in enumerate(rows):
            key = (day << 32) | dev
            acc = get(key)
            if acc is None:
                acc = accs[key] = _ColAcc()
                # First radio event of this (device, day): every radio
                # event is on the observer's network, so the home flag
                # and the observer PLMN are set once, and the per-day
                # identity candidates are captured here.  The radio scan
                # runs first, so a cell that exists here was created by
                # a radio event.
                acc.on_home = True
                acc.visited_ids.add(observer_id)
                acc.sim_radio_id = sims[i]
                acc.tac = tacs[i]
                if dev not in first_radio:
                    first_radio[dev] = i
            if success_of[result]:
                bit = rat_bit_of[interface]
                acc.radio_mask |= bit
                if voice_of[interface]:
                    acc.voice_mask |= bit
                else:
                    acc.data_mask |= bit
            else:
                acc.n_failed += 1
            acc.n_events += 1
            if track_mobility:
                acc.radio_rows.append(i)

        svc_voice_of = _SERVICE_IS_VOICE
        durations = service_records.durations
        byte_counts = service_records.bytes_totals
        apn_ids = service_records.apns
        svc_sims = service_records.sim_plmns
        svc_rows = zip(
            service_records.device_ids,
            service_records.days,
            service_records.services,
            service_records.visited_plmns,
        )
        for i, (dev, day, service, visited) in enumerate(svc_rows):
            key = (day << 32) | dev
            acc = get(key)
            if acc is None:
                acc = accs[key] = _ColAcc()
            acc.visited_ids.add(visited)
            if visited == observer_id:
                acc.on_home = True
            if svc_voice_of[service]:
                acc.n_calls += 1
                acc.voice_minutes += durations[i] / 60.0
            else:
                acc.n_data_sessions += 1
                acc.bytes_total += byte_counts[i]
                apn = apn_ids[i]
                if apn != NULL_ID:
                    acc.apn_ids.add(apn)
            if acc.sim_service_id < 0:
                acc.sim_service_id = svc_sims[i]
            if dev not in first_service:
                first_service[dev] = i

        return accs, first_radio, first_service

    def _mobility(
        self, acc: _ColAcc, radio_events: ColumnarRadioEvents
    ) -> Optional[MobilityMetrics]:
        """The cell's mobility, from its radio rows' (timestamp, sector)."""
        if not acc.radio_rows:
            return None
        timestamps = radio_events.timestamps
        sectors = radio_events.sector_ids
        return daily_mobility_from_pairs(
            [(timestamps[i], sectors[i]) for i in acc.radio_rows], self._sectors
        )

    def _record_from_acc(
        self,
        device_id: str,
        day: int,
        sim_plmn: str,
        acc: _ColAcc,
        radio_events: ColumnarRadioEvents,
    ) -> DeviceDayRecord:
        """Finalize one accumulator into a catalog row."""
        pools = radio_events.pools
        plmn_lookup = pools.plmns.lookup
        apn_lookup = pools.apns.lookup
        return DeviceDayRecord(
            device_id=device_id,
            day=day,
            sim_plmn=sim_plmn,
            visited_plmns=frozenset(plmn_lookup(v) for v in acc.visited_ids),
            n_events=acc.n_events,
            n_failed_events=acc.n_failed,
            n_calls=acc.n_calls,
            voice_minutes=acc.voice_minutes,
            n_data_sessions=acc.n_data_sessions,
            bytes_total=acc.bytes_total,
            apns=frozenset(apn_lookup(a) for a in acc.apn_ids),
            radio_flags=RadioFlags(acc.radio_mask),
            voice_flags=RadioFlags(acc.voice_mask),
            data_flags=RadioFlags(acc.data_mask),
            mobility=self._mobility(acc, radio_events),
            on_home_network=acc.on_home,
        )

    def _day_records(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, int]]:
        """Daily records sorted by (device, day), plus each device's TAC."""
        accs, first_radio, first_service = self._accumulate_columns(
            radio_events, service_records
        )
        pools = radio_events.pools
        device_lookup = pools.devices.lookup
        plmn_lookup = pools.plmns.lookup

        sim_plmn_of: Dict[str, str] = {}
        tac_of: Dict[str, int] = {}
        for dev, i in first_radio.items():
            device_id = device_lookup(dev)
            sim_plmn_of[device_id] = plmn_lookup(radio_events.sim_plmns[i])
            tac_of[device_id] = radio_events.tacs[i]
        for dev, i in first_service.items():
            device_id = device_lookup(dev)
            if device_id not in sim_plmn_of:
                sim_plmn_of[device_id] = plmn_lookup(service_records.sim_plmns[i])

        records: List[DeviceDayRecord] = []
        record_from_acc = self._record_from_acc
        # Popping frees each accumulator as soon as its record exists, so
        # the two never sit in memory side by side for the whole window.
        while accs:
            key, acc = accs.popitem()
            device_id = device_lookup(key & 0xFFFFFFFF)
            records.append(
                record_from_acc(
                    device_id, key >> 32, sim_plmn_of[device_id], acc, radio_events
                )
            )
        records.sort(key=lambda r: (r.device_id, r.day))
        return records, tac_of

    def build_day_records(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> List[DeviceDayRecord]:
        """Emit the daily devices-catalog, sorted by (device, day)."""
        return self._day_records(radio_events, service_records)[0]

    def build_from_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """One-shot: daily records plus per-device summaries.

        Scans interned int columns: no per-event property calls, no
        string key hashing, and one :class:`RadioFlags` per (device,
        day) cell instead of one per successful event.
        """
        records, tac_of = self._day_records(radio_events, service_records)
        return records, self.summarize(records, tac_of)

    #: The one-shot build under its short name, which ``bench/trace.py``
    #: also times.
    build = build_from_columns

    # -- incremental engine ---------------------------------------------------

    def _cell_from_acc(
        self, acc: _ColAcc, radio_events: ColumnarRadioEvents
    ) -> _DayCell:
        """Freeze an accumulator into pool-independent state."""
        pools = radio_events.pools
        plmn_lookup = pools.plmns.lookup
        apn_lookup = pools.apns.lookup
        return _DayCell(
            n_events=acc.n_events,
            n_failed_events=acc.n_failed,
            radio_mask=acc.radio_mask,
            voice_mask=acc.voice_mask,
            data_mask=acc.data_mask,
            n_calls=acc.n_calls,
            voice_minutes=acc.voice_minutes,
            n_data_sessions=acc.n_data_sessions,
            bytes_total=acc.bytes_total,
            apns=frozenset(apn_lookup(a) for a in acc.apn_ids),
            visited_plmns=frozenset(plmn_lookup(v) for v in acc.visited_ids),
            on_home_network=acc.on_home,
            mobility=self._mobility(acc, radio_events),
            sim_radio=(
                plmn_lookup(acc.sim_radio_id) if acc.sim_radio_id >= 0 else None
            ),
            tac=acc.tac if acc.sim_radio_id >= 0 else None,
            sim_service=(
                plmn_lookup(acc.sim_service_id) if acc.sim_service_id >= 0 else None
            ),
        )

    def _record_from_cell(
        self, device_id: str, day: int, sim_plmn: str, cell: _DayCell
    ) -> DeviceDayRecord:
        return DeviceDayRecord(
            device_id=device_id,
            day=day,
            sim_plmn=sim_plmn,
            visited_plmns=cell.visited_plmns,
            n_events=cell.n_events,
            n_failed_events=cell.n_failed_events,
            n_calls=cell.n_calls,
            voice_minutes=cell.voice_minutes,
            n_data_sessions=cell.n_data_sessions,
            bytes_total=cell.bytes_total,
            apns=cell.apns,
            radio_flags=RadioFlags(cell.radio_mask),
            voice_flags=RadioFlags(cell.voice_mask),
            data_flags=RadioFlags(cell.data_mask),
            mobility=cell.mobility,
            on_home_network=cell.on_home_network,
        )

    def _resolve_incremental_identity(
        self, device_id: str
    ) -> Tuple[str, Optional[int]]:
        """Resolve (SIM, TAC) from the device's cells, ascending by day.

        The first day with radio activity wins — with days fed in
        ascending order this is exactly the one-shot build's "first
        radio event in the stream".  A device with no radio on any day
        falls back to its earliest service SIM (and no TAC), again as
        the one-shot build resolves it.
        """
        cells = self._inc_cells
        fallback: Optional[str] = None
        for day in sorted(self._inc_device_days[device_id]):
            cell = cells[day][device_id]
            if cell.sim_radio is not None:
                return cell.sim_radio, cell.tac
            if fallback is None and cell.sim_service is not None:
                fallback = cell.sim_service
        if fallback is None:  # unreachable: every cell has >= 1 record
            raise RuntimeError(f"device {device_id!r} has cells but no SIM")
        return fallback, None

    def update(
        self,
        day: int,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> CatalogUpdate:
        """Fold one day's record slice into the incremental catalog.

        Re-accumulates only the given day, diffs the resulting
        (device, day) cells against the previous state, and recomputes
        records/summaries for *changed devices only* — unchanged devices
        keep their cached rows untouched.  Feeding day partitions in
        ascending day order makes :meth:`snapshot` equal to
        :meth:`build_from_columns` over the concatenated streams
        (identity resolution depends on day order; see
        ``_resolve_incremental_identity``).

        Re-sending a day replaces that day's slice (idempotent for an
        identical slice: zero devices change).  Rows for any other day
        in the slice raise ``ValueError``.
        """
        for store_days in (radio_events.days, service_records.days):
            if len(store_days) and (
                min(store_days) != day or max(store_days) != day
            ):
                raise ValueError(f"update({day}) received rows for other days")

        accs, _, _ = self._accumulate_columns(radio_events, service_records)
        device_lookup = radio_events.pools.devices.lookup
        new_cells = {
            device_lookup(key & 0xFFFFFFFF): self._cell_from_acc(acc, radio_events)
            for key, acc in accs.items()
        }

        old_cells = self._inc_cells.get(day, {})
        changed = sorted(
            device_id
            for device_id in set(old_cells) | set(new_cells)
            if old_cells.get(device_id) != new_cells.get(device_id)
        )
        if new_cells:
            self._inc_cells[day] = new_cells
        else:
            self._inc_cells.pop(day, None)
        if not changed:
            return CatalogUpdate(
                day=day, changed_devices=(), n_devices=len(self._inc_device_days)
            )

        for device_id in changed:
            device_days = self._inc_device_days.setdefault(device_id, set())
            if device_id in new_cells:
                device_days.add(day)
            else:
                device_days.discard(day)
                self._inc_records.pop((device_id, day), None)
                if not device_days:
                    del self._inc_device_days[device_id]
                    self._inc_summaries.pop(device_id, None)

        refold: List[DeviceDayRecord] = []
        tac_of: Dict[str, int] = {}
        for device_id in changed:
            device_days = self._inc_device_days.get(device_id, set())
            if not device_days:
                continue
            sim_plmn, tac = self._resolve_incremental_identity(device_id)
            if tac is not None:
                tac_of[device_id] = tac
            for d in sorted(device_days):
                cache_key = (device_id, d)
                cached = self._inc_records.get(cache_key)
                # Rebuild the updated day's row, any missing row, and —
                # when the resolved SIM moved (e.g. the first radio day
                # was replaced) — every row carrying the stale SIM.
                if d == day or cached is None or cached.sim_plmn != sim_plmn:
                    cached = self._record_from_cell(
                        device_id, d, sim_plmn, self._inc_cells[d][device_id]
                    )
                    self._inc_records[cache_key] = cached
                refold.append(cached)
        if refold:
            self._inc_summaries.update(self.summarize(refold, tac_of))
        return CatalogUpdate(
            day=day,
            changed_devices=tuple(changed),
            n_devices=len(self._inc_device_days),
        )

    def snapshot(self) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """The incremental catalog as of the last :meth:`update` —
        records sorted by (device, day), summaries in sorted device
        order, exactly as :meth:`build_from_columns` emits them."""
        records = sorted(
            self._inc_records.values(), key=lambda r: (r.device_id, r.day)
        )
        summaries = {
            device_id: self._inc_summaries[device_id]
            for device_id in sorted(self._inc_summaries)
        }
        return records, summaries
