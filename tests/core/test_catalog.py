"""Unit tests for the devices-catalog builder, on hand-built records."""

import pytest

from repro.cellular.rats import RAT
from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.signaling.cdr import data_xdr, voice_cdr
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode


@pytest.fixture(scope="module")
def world():
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=10, seed=2))
    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    builder = CatalogBuilder(eco.tac_db, eco.uk_sectors, labeler)
    return eco, builder


def _event(eco, device_id="d1", day=0, hour=1.0, interface=RadioInterface.GB,
           result=ResultCode.OK, sim_plmn=None, tac=None, sector=None):
    if sector is None:
        sector = next(
            s.sector_id for s in eco.uk_sectors if s.rat is interface.rat
        )
    if tac is None:
        tac = next(iter(eco.tac_db)).tac
    return RadioEvent(
        device_id=device_id,
        timestamp=day * 86400.0 + hour * 3600.0,
        sim_plmn=sim_plmn or str(eco.uk_mno.plmn),
        tac=tac,
        sector_id=sector,
        interface=interface,
        event_type=MessageType.ATTACH,
        result=result,
    )


def _day_records(builder, events, services):
    return builder.build_day_records(*from_record_streams(events, services))[0]


def _summaries(builder, events, services):
    return builder.build_from_columns(*from_record_streams(events, services))[1]


class TestDayRecords:
    def test_counts_split_by_day(self, world):
        eco, builder = world
        events = [
            _event(eco, day=0), _event(eco, day=0, hour=2.0), _event(eco, day=1)
        ]
        records = _day_records(builder, events, [])
        assert [r.day for r in records] == [0, 1]
        assert records[0].n_events == 2
        assert records[1].n_events == 1

    def test_radio_flags_only_from_successes(self, world):
        eco, builder = world
        events = [
            _event(eco, interface=RadioInterface.GB),
            _event(eco, interface=RadioInterface.S1, result=ResultCode.SYSTEM_FAILURE),
        ]
        records = _day_records(builder, events, [])
        flags = records[0].radio_flags
        assert flags.has(RAT.GSM)
        assert not flags.has(RAT.LTE)
        assert records[0].n_failed_events == 1

    def test_voice_and_data_flags_split(self, world):
        eco, builder = world
        events = [
            _event(eco, interface=RadioInterface.A),      # 2G voice
            _event(eco, interface=RadioInterface.IU_PS),  # 3G data
        ]
        records = _day_records(builder, events, [])
        record = records[0]
        assert record.voice_flags.rats == {RAT.GSM}
        assert record.data_flags.rats == {RAT.UMTS}
        assert record.radio_flags.rats == {RAT.GSM, RAT.UMTS}

    def test_service_records_aggregate(self, world):
        eco, builder = world
        plmn = str(eco.uk_mno.plmn)
        services = [
            voice_cdr("d1", 100.0, plmn, plmn, duration_s=60.0),
            data_xdr("d1", 200.0, plmn, plmn, 5000, "internet.op.com"),
            data_xdr("d1", 300.0, plmn, plmn, 3000, "web.op.net"),
        ]
        records = _day_records(builder, [], services)
        record = records[0]
        assert record.n_calls == 1
        assert record.voice_minutes == pytest.approx(1.0)
        assert record.n_data_sessions == 2
        assert record.bytes_total == 8000
        assert record.apns == {"internet.op.com", "web.op.net"}


class TestSummaries:
    def test_label_home_native(self, world):
        eco, builder = world
        summaries = _summaries(builder, [_event(eco)], [])
        assert str(summaries["d1"].label) == "H:H"

    def test_label_inbound_roamer(self, world):
        eco, builder = world
        summaries = _summaries(
            builder,
            [_event(eco, sim_plmn=str(eco.nl_iot_operator.plmn))], []
        )
        assert str(summaries["d1"].label) == "I:H"

    def test_label_outbound_roamer_from_cdrs_only(self, world):
        eco, builder = world
        home = str(eco.uk_mno.plmn)
        abroad = "21410"
        services = [voice_cdr("out1", 100.0, home, abroad, 30.0)]
        summaries = _summaries(builder, [], services)
        assert str(summaries["out1"].label) == "H:A"
        assert summaries["out1"].model is None  # no radio events -> no TAC

    def test_tac_join(self, world):
        eco, builder = world
        model = next(iter(eco.tac_db))
        summaries = _summaries(builder, [_event(eco, tac=model.tac)], [])
        assert summaries["d1"].model is model
        assert summaries["d1"].manufacturer == model.manufacturer

    def test_unknown_tac_gives_no_model(self, world):
        eco, builder = world
        summaries = _summaries(builder, [_event(eco, tac=99999999)], [])
        assert summaries["d1"].model is None

    def test_active_days_counted(self, world):
        eco, builder = world
        events = [_event(eco, day=d) for d in (0, 3, 7)]
        summaries = _summaries(builder, events, [])
        assert summaries["d1"].active_days == 3

    def test_mobility_computed_for_radio_devices(self, world):
        eco, builder = world
        sectors = [s.sector_id for s in eco.uk_sectors if s.rat is RAT.GSM][:2]
        events = [
            _event(eco, hour=1.0, sector=sectors[0]),
            _event(eco, hour=2.0, sector=sectors[1]),
        ]
        summaries = _summaries(builder, events, [])
        assert summaries["d1"].mean_gyration_km is not None

    def test_mobility_skipped_when_disabled(self, world):
        eco, _ = world
        labeler = RoamingLabeler(eco.operators, eco.uk_mno)
        builder = CatalogBuilder(
            eco.tac_db, eco.uk_sectors, labeler, compute_mobility=False
        )
        summaries = _summaries(builder, [_event(eco)], [])
        assert summaries["d1"].mean_gyration_km is None

    def test_summary_unions_flags_across_days(self, world):
        eco, builder = world
        events = [
            _event(eco, day=0, interface=RadioInterface.GB),
            _event(eco, day=1, interface=RadioInterface.S1),
        ]
        summaries = _summaries(builder, events, [])
        assert summaries["d1"].radio_flags.rats == {RAT.GSM, RAT.LTE}

    def test_signaling_per_day(self, world):
        eco, builder = world
        events = [_event(eco, day=0), _event(eco, day=0, hour=3.0), _event(eco, day=1)]
        summaries = _summaries(builder, events, [])
        assert summaries["d1"].signaling_per_day() == pytest.approx(1.5)
