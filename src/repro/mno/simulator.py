"""Event generation for the MNO dataset: 22 days of probe records.

For every planned device and every day it is active, the simulator:

1. rolls the device's mobility model to get the day's sector visits and
   resolves each visit to its nearest sector of every RAT the device
   uses,
2. draws the day's radio events (attach / routing-area-update / detach /
   authentication), splitting them between voice- and data-plane
   interfaces per the device's service propensities, each at the
   sector of its visit on its RAT,
3. draws voice CDRs and data xDRs (with the device's APN) for the
   service-usage side,

and, for outbound roamers, emits only CDR/xDRs from the visited network
(radio signaling for outbound roamers stays in the visited country,
§4.1).

No row object is built here.  :class:`ColumnEmitter` makes each
device-day's draws as it goes, in the order they have always been made,
and buffers them.  Besides the draws, numpy runs per device-day only in
the event hours' rejection rounds
(:func:`~repro.devices.traffic_models.sample_event_hours`), which must
count each round's accepted candidates before the next draw.  Radio
draws are derived one block of rows at a time — timestamps sorted
within their device-day, visit, RAT, plane, nearest sector, interface,
event type and result, vectorized over every buffered device-day with
the arithmetic the per-device-day code used — and service draws all at
once in :meth:`ColumnEmitter.finish`: timestamps, and data sessions'
bytes (:func:`~repro.devices.traffic_models.session_bytes`).
:meth:`ColumnEmitter.finish` then orders each stream by timestamp and
interns devices, PLMNs and APNs in first-seen order.  The resulting
stores equal :func:`~repro.columnar.store.from_record_streams`
of the rows those draws describe, column for column and pool for pool,
and the checks :class:`~repro.signaling.events.RadioEvent` and
:class:`~repro.signaling.cdr.ServiceRecord` make on construction run
over the stores instead (:func:`~repro.columnar.store.check_stores`).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Optional, Tuple, TypeVar

import numpy as np

from repro.cellular.rats import RAT
from repro.columnar.store import (
    NULL_ID,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    ColumnPools,
    RowSequence,
    _first_seen,
    check_stores,
)
from repro.datasets.containers import GroundTruthEntry, MNODataset
from repro.devices.mobility_models import MobilityModel
from repro.devices.traffic_models import (
    CALL_MEAN_S,
    DiurnalShape,
    sample_event_hours,
    session_bytes,
)
from repro.ecosystem import Ecosystem
from repro.mno.config import MNOConfig
from repro.mno.population import PlannedDevice, PopulationBuilder
from repro.signaling.cdr import SERVICE_TYPES, ServiceType
from repro.signaling.events import RADIO_INTERFACES, RadioInterface
from repro.signaling.procedures import (
    MESSAGE_TYPES,
    RESULT_CODES,
    MessageType,
    ResultCode,
)

#: Mid-session event-type mix (§7.1 monitors Attach, Routing Area Update
#: and Detach; authentications ride along).  Day sessions are structured:
#: the first event of a device-day is an ATTACH and the last a DETACH;
#: events in between draw from this mix.
_MID_EVENT_TYPES = (
    MessageType.ROUTING_AREA_UPDATE,
    MessageType.AUTHENTICATION,
    MessageType.ATTACH,   # intra-day re-attach after a coverage gap
    MessageType.DETACH,
)
_MID_EVENT_CUM = np.cumsum([0.70, 0.14, 0.08, 0.08])

# Enum values as the column stores encode them.
_MID_EVENT_CODES = np.array(
    [MESSAGE_TYPES.index(kind) for kind in _MID_EVENT_TYPES], dtype=np.int8
)
_ATTACH = MESSAGE_TYPES.index(MessageType.ATTACH)
_DETACH = MESSAGE_TYPES.index(MessageType.DETACH)
#: Result code by failure flag: [OK, SYSTEM_FAILURE].
_RESULT_BY_FAILURE = np.array(
    [RESULT_CODES.index(ResultCode.OK), RESULT_CODES.index(ResultCode.SYSTEM_FAILURE)],
    dtype=np.int8,
)
_VOICE = SERVICE_TYPES.index(ServiceType.VOICE)
_DATA = SERVICE_TYPES.index(ServiceType.DATA)

_N_RATS = len(RAT)
_RAT_CODES = {rat: code for code, rat in enumerate(RAT)}
#: Interface code by [RAT code, voice plane]; 4G has no voice plane.
_INTERFACES = np.array(
    [
        [
            RADIO_INTERFACES.index(RadioInterface.for_plane(rat, False)),
            RADIO_INTERFACES.index(RadioInterface.for_plane(rat, True))
            if rat is not RAT.LTE
            else -1,
        ]
        for rat in RAT
    ],
    dtype=np.int8,
)

#: Buffered radio rows that trigger a block pass, and visits per
#: nearest-sector lookup.  They keep each of the pass's buffers and
#: temporaries (about twenty per row, and the lookup's visits x sectors
#: distance matrices) at about 80 KiB or less in the CLI world's 80
#: sites, under glibc's default 128 KiB mmap threshold: 8,192-row
#: blocks with 1,024-visit slices were as fast and read 3-5 MiB more
#: peak RSS on ``repro run --devices 800``.
_BLOCK_ROWS = 2048
_NEAREST_SLICE = 128

#: numpy dtype of each store column typecode.
_DTYPES = {"q": np.int64, "d": np.float64, "b": np.int8}


_Store = TypeVar("_Store", ColumnarRadioEvents, ColumnarServiceRecords)


def _zeroed(store: _Store, n_rows: int) -> _Store:
    """``store`` with every column ``n_rows`` zeros long."""
    for name, typecode in store.COLUMNS:
        setattr(store, name, array(typecode, [0]) * n_rows)
    return store


def _time_order(timestamps: np.ndarray) -> np.ndarray:
    """``np.argsort(timestamps, kind="stable")`` from numpy's faster
    unstable sort: rows of equal timestamps, which it may swap, are put
    back in position order."""
    order = np.argsort(timestamps)
    ordered = timestamps[order]
    ties = ordered[1:] == ordered[:-1]
    if ties.any():
        runs = np.concatenate(([0], np.cumsum(~ties)))
        order = order[np.lexsort((order, runs))]
    return order


def _fill(column: array, values: np.ndarray) -> None:
    """Write ``values`` over a store column of the same length."""
    np.frombuffer(column, dtype=_DTYPES[column.typecode])[:] = values


class _RadioBlock(NamedTuple):
    """Radio draws buffered until the next block pass."""

    #: (device, row count, day, visit-weights id) per device-day.
    days: array
    #: (lat, lon) per visit.
    visits: array
    #: Event hour per row, unsorted.
    hours: array
    #: The ``rng.random(5 * n)`` draws of each device-day.
    draws: array

    @classmethod
    def empty(cls) -> "_RadioBlock":
        return cls(array("q"), array("d"), array("d"), array("d"))


class _DayDraws(NamedTuple):
    """What a device's day draws read: fixed for the device."""

    #: Poisson means of the day's signaling events, calls and data
    #: sessions; None when the device draws none (outbound roamers'
    #: signaling stays abroad; no voice; no data or no APN).
    signaling: Optional[float]
    calls: Optional[float]
    sessions: Optional[float]
    mobility: Optional[MobilityModel]
    diurnal: DiurnalShape
    apns: List[str]
    #: The lognormal of a data session's megabytes.
    mb_mu: float
    mb_sigma: float


class ColumnEmitter:
    """Turns device-days of simulator draws into interned column stores.

    :meth:`emit` makes one device-day's draws, in the order they have
    always been made, and buffers them.  Radio draws are derived into
    columns one block of :data:`_BLOCK_ROWS` rows at a time, with the
    arithmetic the per-device-day code used (:meth:`_derive_block`);
    :meth:`finish` derives the service columns, then orders and interns
    the columns into stores.  The batch simulator emits every device-day
    of the window into one emitter; the streaming simulator uses one per
    day and shard.
    """

    def __init__(self, ecosystem: Ecosystem) -> None:
        self._sectors = ecosystem.uk_sectors
        self._observer_plmn = str(ecosystem.uk_mno.plmn)
        self._devices: Dict[str, int] = {}
        # Per-device constants, by local device index.
        self._device_ids: List[str] = []
        self._sim_plmns: List[str] = []
        self._visited_plmns: List[str] = []
        self._tacs: List[int] = []
        # RAT codes of the data and the voice RATs, _N_RATS per device
        # padded with -1, and the radio draws' per-device thresholds.
        self._rats = array("b")
        self._voice_rats = array("b")
        self._voice_fractions = array("d")
        self._failure_probs = array("d")
        self._day_draws: List[_DayDraws] = []
        self._apns: Dict[str, int] = {}
        # Distinct visit-weight tuples: the mobility models have a few.
        self._weights: Dict[Tuple[float, ...], int] = {}
        self._block = _RadioBlock.empty()
        # Row values go straight into flat buffers, with one (device, row
        # count) chunk per device-day: per-chunk arrays or Python floats
        # would take several times the memory of the columns.
        self._radio_chunks = array("q")
        self._radio_ts = array("d")
        self._radio_sectors = array("q")
        self._radio_interfaces = array("b")
        self._radio_types = array("b")
        self._radio_results = array("b")
        # Service chunks are (device, day, service, apn, row count).
        # Each row's uniform draw places it in its day; its duration is
        # drawn per voice row and its lognormal normal per data row.
        self._service_chunks = array("q")
        self._service_uniforms = array("d")
        self._durations = array("d")
        self._normals = array("d")

    def _device(self, plan: PlannedDevice) -> int:
        index = self._devices.get(plan.device_id)
        if index is not None:
            return index
        index = self._devices[plan.device_id] = len(self._devices)
        self._device_ids.append(plan.device_id)
        self._sim_plmns.append(plan.device.sim_plmn)
        self._visited_plmns.append(plan.outbound_visited_plmn or self._observer_plmn)
        self._tacs.append(plan.device.tac)
        for table, rats in ((self._rats, plan.data_rats), (self._voice_rats, plan.voice_rats)):
            table.extend([_RAT_CODES[rat] for rat in rats] + [-1] * (_N_RATS - len(rats)))
        self._voice_fractions.append(plan.voice_event_fraction)
        self._failure_probs.append(plan.segment.event_failure_prob)
        traffic = plan.traffic
        signaling, calls, sessions = traffic.daily_means()
        self._day_draws.append(
            _DayDraws(
                signaling=None if plan.segment.outbound else signaling,
                calls=calls if plan.uses_voice else None,
                sessions=sessions if plan.uses_data and plan.apns else None,
                mobility=plan.mobility,
                diurnal=traffic.diurnal,
                apns=plan.apns,
                mb_mu=traffic.data_mb_mu,
                mb_sigma=traffic.data_mb_sigma,
            )
        )
        return index

    def emit(self, plan: PlannedDevice, day: int, rng: np.random.Generator) -> None:
        """Draw one device-day: radio events (none for outbound roamers),
        then service records."""
        device = self._device(plan)
        draws = self._day_draws[device]
        self._radio_day(draws, device, day, rng)
        self._service_day(draws, device, day, rng)

    def _radio_day(
        self, draws: _DayDraws, device: int, day: int, rng: np.random.Generator
    ) -> None:
        """Make one device-day's radio draws and buffer them."""
        if draws.signaling is None:
            return
        n = int(rng.poisson(draws.signaling))
        if n <= 0 or draws.mobility is None:
            return
        visits = draws.mobility.visits_for_day(day, rng)
        hours = sample_event_hours(n, draws.diurnal, rng)
        block = self._block
        block.hours.frombytes(hours.tobytes())
        # Plane, visit, type, failure and RAT draws, n of each in turn.
        block.draws.frombytes(rng.random(5 * n).tobytes())
        weights = tuple(weight for _, weight in visits)
        block.days.extend(
            (device, n, day, self._weights.setdefault(weights, len(self._weights)))
        )
        for position, _ in visits:
            block.visits.extend((position.lat, position.lon))
        if len(block.hours) >= _BLOCK_ROWS:
            self._derive_block()

    def _visit_cums(self) -> Tuple[np.ndarray, np.ndarray]:
        """Visit count and cumulative dwell shares by visit-weights id.

        A visit draw ``x`` picks the number of shares ``< x`` (the
        ``searchsorted`` of the draw).  The last share is left out, so
        the pick stays inside the day's visits; the rest pad with +inf.
        """
        counts = np.array([len(weights) for weights in self._weights], dtype=np.int64)
        cums = np.full((len(counts), int(counts.max()) - 1), np.inf)
        for row, weights in enumerate(self._weights):
            shares = np.array(weights, dtype=float)
            cums[row, : len(weights) - 1] = np.cumsum(shares / shares.sum())[:-1]
        return counts, cums

    def _derive_block(self) -> None:
        """Derive the columns of every buffered device-day at once and
        append them, with the per-device-day arithmetic: timestamps
        sorted within their device-day, the visit pick, the RAT and
        plane, the nearest sector, the interface, the event type and
        the result."""
        block, self._block = self._block, _RadioBlock.empty()
        if not block.days:
            return
        days = np.frombuffer(block.days, dtype=np.int64).reshape(-1, 4)
        device, counts, day, weights_id = days.T
        # Each row's device-day, and the first row of each device-day.
        row_day = np.repeat(np.arange(len(days)), counts)
        starts = np.cumsum(counts) - counts
        n = counts[row_day]

        # Hours sorted within their device-day: numpy sorts complex
        # numbers by real part, then by imaginary part.
        by_day = np.empty(len(row_day), dtype=np.complex128)
        by_day.real = row_day
        by_day.imag = np.frombuffer(block.hours, dtype=np.float64)
        by_day.sort()
        timestamps = day[row_day] * 86400.0 + by_day.imag * 3600.0

        # The draws of a device-day's row i sit at i + k * n past its
        # device-day's first draw, 5 * start.
        draws = np.frombuffer(block.draws, dtype=np.float64)
        first_draw = np.arange(len(row_day)) + 4 * starts[row_day]
        plane_draws, visit_draws, type_draws, fail_draws, rat_draws = (
            draws[first_draw + k * n] for k in range(5)
        )

        visit_counts, cums = self._visit_cums()
        n_visits = visit_counts[weights_id]
        row_weights = weights_id[row_day]
        visit = (np.cumsum(n_visits) - n_visits)[row_day]
        for column in cums.T:
            visit += column[row_weights] < visit_draws

        rats, voice_rats = (
            np.frombuffer(table, dtype=np.int8).reshape(-1, _N_RATS)[device]
            for table in (self._rats, self._voice_rats)
        )
        n_rats = (rats >= 0).sum(axis=1)[row_day]
        n_voice = (voice_rats >= 0).sum(axis=1)[row_day]
        row_device = device[row_day]
        fractions = np.frombuffer(self._voice_fractions, dtype=np.float64)[row_device]
        voice = (plane_draws < fractions) & (n_voice > 0)
        rat = np.where(
            voice,
            voice_rats[row_day, (rat_draws * n_voice).astype(np.intp)],
            rats[row_day, (rat_draws * n_rats).astype(np.intp)],
        )

        # Nearest sector of every RAT a visit's device uses, in slices
        # that keep the (visits x sectors) distance matrix small.
        lats, lons = np.frombuffer(block.visits, dtype=np.float64).reshape(-1, 2).T
        visit_rats = rats[np.repeat(np.arange(len(days)), n_visits)]
        sectors = np.full((_N_RATS, len(lats)), -1, dtype=np.int64)
        for code, radio in enumerate(RAT):
            wanted = np.flatnonzero((visit_rats == code).any(axis=1))
            for start in range(0, len(wanted), _NEAREST_SLICE):
                chunk = wanted[start : start + _NEAREST_SLICE]
                ids = self._sectors.nearest_ids(lats[chunk], lons[chunk], radio)
                # The observer supports all three RATs, so lookup cannot
                # miss for RATs the device actually uses.
                assert ids is not None
                sectors[code, chunk] = ids

        types = _MID_EVENT_CODES[np.searchsorted(_MID_EVENT_CUM, type_draws)]
        types[starts] = _ATTACH
        types[(starts + counts - 1)[counts > 1]] = _DETACH
        failure_probs = np.frombuffer(self._failure_probs, dtype=np.float64)[row_device]

        self._radio_chunks.frombytes(days[:, :2].tobytes())
        self._radio_ts.frombytes(timestamps.tobytes())
        self._radio_sectors.frombytes(sectors[rat, visit].tobytes())
        self._radio_interfaces.frombytes(
            _INTERFACES[rat, voice.astype(np.intp)].tobytes()
        )
        self._radio_types.frombytes(types.tobytes())
        self._radio_results.frombytes(
            _RESULT_BY_FAILURE[(fail_draws < failure_probs).astype(np.intp)].tobytes()
        )

    def _service_day(
        self, draws: _DayDraws, device: int, day: int, rng: np.random.Generator
    ) -> None:
        """Make one device-day's service draws and buffer them."""
        # Each row's uniform draw interleaves with a variable-length
        # exponential or normal draw, so these stay scalar and in order.
        uniform = rng.random
        append_uniform = self._service_uniforms.append
        if draws.calls is not None:
            calls = int(rng.poisson(draws.calls))
            if calls > 0:
                exponential = rng.exponential
                append_duration = self._durations.append
                for _ in range(calls):
                    append_uniform(uniform())
                    append_duration(exponential(CALL_MEAN_S))
                self._service_chunks.extend((device, day, _VOICE, NULL_ID, calls))
        if draws.sessions is not None:
            sessions = int(rng.poisson(draws.sessions))
            if sessions <= 0:
                return
            apn = draws.apns[int(rng.integers(len(draws.apns)))]
            apn_id = self._apns.setdefault(apn, len(self._apns))
            normal, mu, sigma = rng.normal, draws.mb_mu, draws.mb_sigma
            append_normal = self._normals.append
            for _ in range(sessions):
                append_uniform(uniform())
                append_normal(normal(mu, sigma))
            self._service_chunks.extend((device, day, _DATA, apn_id, sessions))

    def finish(self) -> Tuple[ColumnarRadioEvents, ColumnarServiceRecords]:
        """Order by timestamp, intern and check everything emitted.

        Each stream is stably sorted by timestamp, then devices, PLMNs
        and APNs are interned in first-seen order over the sorted radio
        rows and then the sorted service rows (SIM before visited PLMN):
        the order :func:`~repro.columnar.store.from_record_streams`
        interns the same rows in.  The stores then pass
        :func:`~repro.columnar.store.check_stores`, the checks the row
        dataclasses make, or it raises.
        """
        # The stores' columns are allocated before the temporaries that
        # fill them, so that freeing those lets the heap shrink again.
        pools = ColumnPools()
        n_radio = len(self._radio_ts) + len(self._block.hours)
        events = _zeroed(ColumnarRadioEvents(pools), n_radio)
        records = _zeroed(ColumnarServiceRecords(pools), len(self._service_uniforms))
        self._derive_block()

        chunks = np.frombuffer(self._radio_chunks, dtype=np.int64).reshape(-1, 2)
        radio_dev = np.repeat(chunks[:, 0], chunks[:, 1])
        radio_ts = np.frombuffer(self._radio_ts, dtype=np.float64)
        chunks = np.frombuffer(self._service_chunks, dtype=np.int64).reshape(-1, 5)
        service_dev, services, apns = (
            np.repeat(chunks[:, i], chunks[:, 4]) for i in (0, 2, 3)
        )
        # day * 86400.0 + uniform * 86400.0 per row, as the scalar code
        # summed it, over the uniforms' buffer.
        service_ts = np.frombuffer(self._service_uniforms, dtype=np.float64)
        service_ts *= 86400.0
        service_ts += np.repeat(chunks[:, 1] * 86400.0, chunks[:, 4])
        durations = np.zeros(len(service_ts))
        durations[services == _VOICE] = np.frombuffer(self._durations, dtype=np.float64)
        sizes = np.zeros(len(service_ts), dtype=np.int64)
        sizes[services == _DATA] = session_bytes(
            np.frombuffer(self._normals, dtype=np.float64)
        )

        radio_order = _time_order(radio_ts)
        radio_dev = radio_dev[radio_order]
        order = _time_order(service_ts)
        service_dev, service_ts, services, apns, durations, sizes = (
            column[order]
            for column in (service_dev, service_ts, services, apns, durations, sizes)
        )

        # The per-device strings enter the pools in the order their
        # devices first appear: the PLMNs' own first-seen order, since a
        # device's PLMNs are the same on all its rows.
        n_local = len(self._device_ids)
        device_ids = np.zeros(n_local, dtype=np.int64)
        sim_ids = np.zeros(n_local, dtype=np.int64)
        visited_ids = np.zeros(n_local, dtype=np.int64)
        for dev in _first_seen(radio_dev, n_local):
            device_ids[dev] = pools.devices.intern(self._device_ids[dev])
            sim_ids[dev] = pools.plmns.intern(self._sim_plmns[dev])
        for dev in _first_seen(service_dev, n_local):
            device_ids[dev] = pools.devices.intern(self._device_ids[dev])
            sim_ids[dev] = pools.plmns.intern(self._sim_plmns[dev])
            visited_ids[dev] = pools.plmns.intern(self._visited_plmns[dev])
        # The extra last slot maps NULL_ID (-1) to itself.
        apn_ids = np.full(len(self._apns) + 1, NULL_ID, dtype=np.int64)
        apn_strings = list(self._apns)
        for apn in _first_seen(apns[apns != NULL_ID], len(apn_strings)):
            apn_ids[apn] = pools.apns.intern(apn_strings[apn])

        radio_ts = radio_ts[radio_order]
        _fill(events.device_ids, device_ids[radio_dev])
        _fill(events.timestamps, radio_ts)
        _fill(events.days, radio_ts // 86400.0)
        _fill(events.sim_plmns, sim_ids[radio_dev])
        _fill(events.tacs, np.array(self._tacs, dtype=np.int64)[radio_dev])
        _fill(events.sector_ids, np.frombuffer(self._radio_sectors, np.int64)[radio_order])
        _fill(events.interfaces, np.frombuffer(self._radio_interfaces, np.int8)[radio_order])
        _fill(events.event_types, np.frombuffer(self._radio_types, np.int8)[radio_order])
        _fill(events.results, np.frombuffer(self._radio_results, np.int8)[radio_order])

        _fill(records.device_ids, device_ids[service_dev])
        _fill(records.timestamps, service_ts)
        _fill(records.days, service_ts // 86400.0)
        _fill(records.sim_plmns, sim_ids[service_dev])
        _fill(records.visited_plmns, visited_ids[service_dev])
        _fill(records.services, services)
        _fill(records.durations, durations)
        _fill(records.bytes_totals, sizes)
        _fill(records.apns, apn_ids[apns])
        check_stores(events, records)
        return events, records


def ground_truth_entry(plan: PlannedDevice) -> GroundTruthEntry:
    """The simulator-side truth for one planned device."""
    return GroundTruthEntry(
        device_id=plan.device_id,
        device_class=plan.device.device_class,
        provenance=plan.device.provenance,
        vertical=plan.device.vertical,
        profile=plan.segment.name,
        home_country_iso=plan.device.home_operator.country.iso,
        smip_native=plan.segment.smip_native,
        smip_roaming=plan.segment.smip_roaming,
    )


class MNOSimulator:
    """Builds :class:`MNODataset` instances from an :class:`MNOConfig`."""

    def __init__(self, ecosystem: Ecosystem, config: Optional[MNOConfig] = None):
        self.ecosystem = ecosystem
        self.config = config or MNOConfig()
        self._rng = np.random.default_rng(self.config.seed + 1)

    def simulate(
        self, population: Optional[List[PlannedDevice]] = None
    ) -> MNODataset:
        """Generate the full dataset (deterministic per config seed).

        Every device-day draws from the simulator's one stream, device by
        device.  The dataset's streams are row views over the emitted
        stores (:attr:`MNODataset.columns`).
        """
        if population is None:
            population = PopulationBuilder(self.ecosystem, self.config).build()

        emitter = ColumnEmitter(self.ecosystem)
        ground_truth: Dict[str, GroundTruthEntry] = {}
        for plan in population:
            for day in plan.active_days.tolist():
                emitter.emit(plan, day, self._rng)
            ground_truth[plan.device_id] = ground_truth_entry(plan)
        events, records = emitter.finish()
        return MNODataset(
            observer=self.ecosystem.uk_mno,
            radio_events=RowSequence(events),
            service_records=RowSequence(records),
            tac_db=self.ecosystem.tac_db,
            sector_catalog=self.ecosystem.uk_sectors,
            window_days=self.config.window_days,
            ground_truth=ground_truth,
        )


def simulate_mno_dataset(
    ecosystem: Ecosystem, config: Optional[MNOConfig] = None
) -> MNODataset:
    """Convenience wrapper: one call from ecosystem to dataset."""
    return MNOSimulator(ecosystem, config).simulate()
