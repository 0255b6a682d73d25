"""Property: a unit gathered from interned stores is the interning of its rows.

:func:`repro.columnar.store.select_own_pools` cuts rows out of two
stores sharing one pool set onto pools of their own.  Whatever the
stores and the index sets (empty, repeated, out of order), its packed
block must be the bytes ``pack_columns(*from_record_streams(...))``
writes for the same rows: the same columns and the same pools, in the
same interning order, with no string the rows leave out.  The stores
hold outbound roamers (service rows only), voice rows (no APN) and
data rows with and without an APN.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar.blocks import pack_columns
from repro.columnar.store import from_record_streams, select_own_pools
from repro.signaling.cdr import ServiceRecord, ServiceType
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode

#: Radio devices; ``roamer-*`` devices only ever have service rows.
RADIO_DEVICES = ["d0", "d1", "d2", "d3"]
ROAMERS = ["roamer-0", "roamer-1"]
PLMNS = ["23410", "21407", "310260", "20801", "26202"]
APNS = ["iot.a", "m2m.b", "fleet.c"]
timestamps = st.floats(min_value=0.0, max_value=4 * 86400.0 - 1)


@st.composite
def radio_rows(draw):
    return RadioEvent(
        device_id=draw(st.sampled_from(RADIO_DEVICES)),
        timestamp=draw(timestamps),
        sim_plmn=draw(st.sampled_from(PLMNS)),
        tac=draw(st.integers(0, 10**8 - 1)),
        sector_id=draw(st.integers(-5, 5)),
        interface=draw(st.sampled_from(list(RadioInterface))),
        event_type=draw(st.sampled_from(list(MessageType))),
        result=draw(st.sampled_from(list(ResultCode))),
    )


@st.composite
def service_rows(draw):
    voice = draw(st.booleans())
    return ServiceRecord(
        device_id=draw(st.sampled_from(RADIO_DEVICES + ROAMERS)),
        timestamp=draw(timestamps),
        sim_plmn=draw(st.sampled_from(PLMNS)),
        visited_plmn=draw(st.sampled_from(PLMNS)),
        service=ServiceType.VOICE if voice else ServiceType.DATA,
        duration_s=draw(st.floats(0.0, 600.0)) if voice else 0.0,
        bytes_total=0 if voice else draw(st.integers(0, 10**9)),
        apn=None if voice else draw(st.sampled_from([None, *APNS])),
    )


@st.composite
def stores_and_indices(draw):
    """Both streams interned onto one pool set, plus index lists into
    them: a sorted subset (how units are cut) or any sequence."""
    radio = draw(st.lists(radio_rows(), max_size=25))
    service = draw(st.lists(service_rows(), max_size=25))

    def indices(n):
        if not n:
            return []
        positions = st.integers(0, n - 1)
        return draw(
            st.one_of(
                st.sets(positions).map(sorted),
                st.lists(positions, max_size=2 * n),
            )
        )

    return radio, service, indices(len(radio)), indices(len(service))


#: One radio row and one outbound roamer's data row, for the fixed case
#: of a unit with no rows cut from stores that have some.
ONE_RADIO = RadioEvent(
    device_id="d0",
    timestamp=10.0,
    sim_plmn="23410",
    tac=1,
    sector_id=1,
    interface=RadioInterface.S1,
    event_type=MessageType.ATTACH,
    result=ResultCode.OK,
)
ONE_ROAMER = ServiceRecord(
    device_id="roamer-0",
    timestamp=20.0,
    sim_plmn="21407",
    visited_plmn="20801",
    service=ServiceType.DATA,
    bytes_total=5,
    apn="iot.a",
)


@settings(max_examples=200, deadline=None)
@given(stores_and_indices())
@example(([ONE_RADIO], [ONE_ROAMER], [], []))
def test_gather_equals_interning_the_rows(case):
    radio, service, radio_index, service_index = case
    events, records = from_record_streams(radio, service)
    expected = pack_columns(
        *from_record_streams(events.rows_at(radio_index), records.rows_at(service_index))
    )
    unit = select_own_pools(events, records, radio_index, service_index)
    assert pack_columns(*unit) == expected
    assert unit[0].pools is unit[1].pools
    assert unit[0].pools is not events.pools
