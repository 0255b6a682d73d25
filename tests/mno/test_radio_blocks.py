"""The simulator's radio columns, derived per block of buffered draws.

:class:`~repro.mno.simulator.ColumnEmitter` makes each device-day's
radio draws as it goes and derives the columns from them one block of
rows at a time.  These tests pin the output of a population built to
reach every branch of that derivation, check the output does not
depend on the block size, check the emitted timestamps stay sorted
inside their device-day, and bound the emitter's memory.
"""

import dataclasses
import hashlib
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from repro.cellular.geo import GeoPoint, offset_km
from repro.cellular.rats import RAT
from repro.columnar.blocks import pack_columns
from repro.devices.mobility_models import (
    CommuterMobility,
    InternationalMobility,
    StationaryMobility,
    VehicularMobility,
)
from repro.devices.traffic_models import DiurnalShape
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, MNOSimulator, PopulationBuilder, simulate_mno_dataset
from repro.mno import simulator as simulator_module
from repro.mno.streaming import StreamingMNOSimulator
from repro.signaling.procedures import MESSAGE_TYPES, MessageType

CONFIG = MNOConfig(n_devices=80, seed=5)

#: RAT sets by device position: the second has no voice-capable RAT.
RAT_SETS = (
    frozenset({RAT.GSM, RAT.UMTS, RAT.LTE}),
    frozenset({RAT.LTE}),
    frozenset({RAT.GSM}),
    frozenset({RAT.UMTS, RAT.LTE}),
)
VOICE_EVENT_FRACTIONS = (0.0, 1.0, 0.3)
SHAPES = (DiurnalShape.HUMAN, DiurnalShape.FLAT, DiurnalShape.NIGHTLY_BATCH)


@pytest.fixture(scope="module")
def world():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


def _mobility(index, anchor):
    kind = index % 4
    if kind == 0:
        return StationaryMobility(anchor=anchor, reselection_prob=0.5)
    if kind == 1:
        return CommuterMobility(home=anchor, work=offset_km(anchor, 12.0, 5.0))
    if kind == 2:
        return VehicularMobility(start=anchor)
    return InternationalMobility(
        country_anchors=[anchor, offset_km(anchor, -80.0, 60.0)], hop_prob=0.5
    )


def mixed_population(world):
    """The builder's population, re-planned to cover every radio branch.

    Every mobility model (the international one keeps state, so each
    call builds a fresh population), every diurnal shape, devices with
    and without a voice RAT, voice event fractions of 0, 1 and between,
    and one device in five signaling about once a day, so some of its
    days hold a single event.  Outbound roamers keep no mobility and
    emit no radio rows.
    """
    country = world.uk_mno.country
    center = GeoPoint(country.lat, country.lon)
    plans = PopulationBuilder(world, CONFIG).build()
    mixed = []
    for index, plan in enumerate(plans):
        if plan.mobility is None:
            mixed.append(plan)
            continue
        anchor = offset_km(center, (index * 37) % 200 - 100.0, (index * 53) % 300 - 150.0)
        traffic = dataclasses.replace(plan.traffic, diurnal=SHAPES[index % 3])
        if index % 5 == 0:
            traffic = dataclasses.replace(traffic, signaling_per_day=1.0, intensity=1.0)
        mixed.append(
            dataclasses.replace(
                plan,
                traffic=traffic,
                rats_used=RAT_SETS[index % 4],
                voice_event_fraction=VOICE_EVENT_FRACTIONS[index % 3],
                mobility=_mobility(index, anchor),
            )
        )
    return mixed


def _simulate_mixed(world):
    return MNOSimulator(world, CONFIG).simulate(mixed_population(world))


def _columns_of(store):
    return {
        name: getattr(store, name).tobytes()
        for name in type(store).__slots__
        if name != "pools"
    }


def _pools_of(store):
    return {
        domain: list(getattr(store.pools, domain).strings)
        for domain in ("devices", "plmns", "apns")
    }


def test_mixed_population_reaches_every_branch(world):
    plans = mixed_population(world)
    moving = [plan for plan in plans if plan.mobility is not None]
    assert {type(plan.mobility) for plan in moving} == {
        StationaryMobility,
        CommuterMobility,
        VehicularMobility,
        InternationalMobility,
    }
    assert {plan.traffic.diurnal for plan in moving} == set(SHAPES)
    assert {plan.voice_event_fraction for plan in moving} == set(VOICE_EVENT_FRACTIONS)
    assert any(not plan.voice_rats for plan in moving)
    outbound = {plan.device_id for plan in plans if plan.segment.outbound}
    assert outbound

    events, _ = _simulate_mixed(world).columns
    device_ids = np.frombuffer(events.device_ids, dtype=np.int64)
    days = np.frombuffer(events.days, dtype=np.int64)
    types = np.frombuffer(events.event_types, dtype=np.int8)
    per_day = defaultdict(list)
    for device, day, kind in zip(device_ids.tolist(), days.tolist(), types.tolist()):
        per_day[device, day].append(kind)
    singles = [kinds for kinds in per_day.values() if len(kinds) == 1]
    assert singles
    assert all(kinds == [MESSAGE_TYPES.index(MessageType.ATTACH)] for kinds in singles)
    radio_devices = {events.pools.devices.strings[i] for i in set(device_ids.tolist())}
    assert not radio_devices & outbound


def test_mixed_population_bytes_pinned(world):
    events, records = _simulate_mixed(world).columns
    assert (len(events), len(records)) == (14_094, 10_317)
    assert hashlib.sha256(pack_columns(events, records)).hexdigest() == (
        "2bf17992494e304bbdcb95ae74d1f8c2b32eecdfe8899847f7634c5a518106a2"
    )


@pytest.mark.parametrize("block_rows", [1, 7])
def test_batch_stores_do_not_depend_on_the_block_size(world, monkeypatch, block_rows):
    expected = _simulate_mixed(world).columns
    monkeypatch.setattr(simulator_module, "_BLOCK_ROWS", block_rows)
    got = _simulate_mixed(world).columns
    for store, want in zip(got, expected):
        assert len(store) == len(want)
        assert _columns_of(store) == _columns_of(want)
        assert _pools_of(store) == _pools_of(want)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_day_shards_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=40, seed=11))
    config = MNOConfig(n_devices=120, seed=9)
    expected = StreamingMNOSimulator(eco, config).generate_day(2)
    monkeypatch.setattr(simulator_module, "_BLOCK_ROWS", block_rows)
    got = StreamingMNOSimulator(eco, config).generate_day(2)
    assert got.radio_events == expected.radio_events
    assert got.service_records == expected.service_records


def test_radio_timestamps_sorted_inside_their_device_day(world):
    """The hours are sorted within each device-day before the session is
    laid on them by position: in the time-ordered stores, a device-day
    opens with its ATTACH and closes with its DETACH, and lies inside a
    day the device was active."""
    events, _ = _simulate_mixed(world).columns
    timestamps = np.frombuffer(events.timestamps, dtype=np.float64)
    device_ids = np.frombuffer(events.device_ids, dtype=np.int64)
    days = np.frombuffer(events.days, dtype=np.int64)
    types = np.frombuffer(events.event_types, dtype=np.int8)
    per_day = defaultdict(list)
    rows = zip(device_ids.tolist(), days.tolist(), timestamps.tolist(), types.tolist())
    for device, day, ts, kind in rows:
        per_day[device, day].append((ts, kind))
    active = {plan.device_id: set(plan.active_days.tolist()) for plan in mixed_population(world)}
    attach = MESSAGE_TYPES.index(MessageType.ATTACH)
    detach = MESSAGE_TYPES.index(MessageType.DETACH)
    for (device, day), session in per_day.items():
        stamps = [ts for ts, _ in session]
        assert stamps == sorted(stamps)
        assert day * 86400.0 <= stamps[0] and stamps[-1] < (day + 1) * 86400.0
        assert day in active[events.pools.devices.strings[device]]
        assert session[0][1] == attach
        if len(session) > 1:
            assert session[-1][1] == detach


def test_simulation_memory_stays_near_the_stores_size():
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=80, seed=11))
    tracemalloc.start()
    try:
        dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=200, seed=7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events, records = dataset.columns
    assert peak <= 3.0 * (events.nbytes + records.nbytes)
