"""Property-based tests for the devices-catalog builder.

Hypothesis generates arbitrary record streams; the builder must preserve
conservation laws regardless of the stream's shape:

* every input record is attributed to exactly one (device, day) row;
* sums over daily rows equal the per-device summary totals;
* radio flags are exactly the union of successful events' RATs;
* failed-event counts equal the failures in the stream.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.signaling.cdr import ServiceRecord, ServiceType
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode

_ECO = build_default_ecosystem(EcosystemConfig(uk_sites=5, seed=1))
_SECTOR_IDS = [s.sector_id for s in _ECO.uk_sectors]
_SECTOR_OF_RAT = {
    interface: next(
        s.sector_id for s in _ECO.uk_sectors if s.rat is interface.rat
    )
    for interface in RadioInterface
}
_OBSERVER = str(_ECO.uk_mno.plmn)

device_ids = st.sampled_from(["d1", "d2", "d3"])
timestamps = st.floats(min_value=0.0, max_value=5 * 86400.0 - 1)
interfaces = st.sampled_from(list(RadioInterface))
results = st.sampled_from([ResultCode.OK, ResultCode.SYSTEM_FAILURE])


@st.composite
def radio_events(draw):
    interface = draw(interfaces)
    return RadioEvent(
        device_id=draw(device_ids),
        timestamp=draw(timestamps),
        sim_plmn=_OBSERVER,
        tac=35000001,
        sector_id=_SECTOR_OF_RAT[interface],
        interface=interface,
        event_type=MessageType.ATTACH,
        result=draw(results),
    )


@st.composite
def service_records(draw):
    is_voice = draw(st.booleans())
    return ServiceRecord(
        device_id=draw(device_ids),
        timestamp=draw(timestamps),
        sim_plmn=_OBSERVER,
        visited_plmn=_OBSERVER,
        service=ServiceType.VOICE if is_voice else ServiceType.DATA,
        duration_s=draw(st.floats(0.0, 600.0)) if is_voice else 0.0,
        bytes_total=0 if is_voice else draw(st.integers(0, 10**6)),
        apn=None if is_voice else draw(st.sampled_from([None, "a.b", "c.d"])),
    )


def _build(events, services):
    labeler = RoamingLabeler(_ECO.operators, _ECO.uk_mno)
    builder = CatalogBuilder(_ECO.tac_db, _ECO.uk_sectors, labeler,
                             compute_mobility=False)
    return builder.build_from_columns(*from_record_streams(events, services))


class TestCatalogConservation:
    @given(
        events=st.lists(radio_events(), max_size=40),
        services=st.lists(service_records(), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_and_byte_conservation(self, events, services):
        day_records, summaries = _build(events, services)

        # Per-device event counts conserve.
        expected_events = defaultdict(int)
        expected_failed = defaultdict(int)
        for event in events:
            expected_events[event.device_id] += 1
            if not event.is_success:
                expected_failed[event.device_id] += 1
        expected_bytes = defaultdict(int)
        expected_calls = defaultdict(int)
        for record in services:
            if record.is_data:
                expected_bytes[record.device_id] += record.bytes_total
            else:
                expected_calls[record.device_id] += 1

        for device_id, summary in summaries.items():
            assert summary.n_events == expected_events[device_id]
            assert summary.n_failed_events == expected_failed[device_id]
            assert summary.bytes_total == expected_bytes[device_id]
            assert summary.n_calls == expected_calls[device_id]

        # Daily rows roll up to the same totals.
        rolled = defaultdict(int)
        for record in day_records:
            rolled[record.device_id] += record.n_events
        for device_id, summary in summaries.items():
            assert rolled[device_id] == summary.n_events

    @given(events=st.lists(radio_events(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_radio_flags_are_successful_rat_union(self, events):
        _, summaries = _build(events, [])
        expected = defaultdict(set)
        for event in events:
            if event.is_success:
                expected[event.device_id].add(event.rat)
        for device_id, summary in summaries.items():
            assert summary.radio_flags.rats == frozenset(expected[device_id])

    @given(
        events=st.lists(radio_events(), max_size=30),
        services=st.lists(service_records(), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_device_summarized_once(self, events, services):
        _, summaries = _build(events, services)
        ids = {e.device_id for e in events} | {r.device_id for r in services}
        assert set(summaries) == ids

    @given(events=st.lists(radio_events(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_active_days_bounded_by_distinct_days(self, events):
        _, summaries = _build(events, [])
        days = defaultdict(set)
        for event in events:
            days[event.device_id].add(event.day)
        for device_id, summary in summaries.items():
            assert summary.active_days == len(days[device_id])
