"""Failure-injection tests: malformed inputs must fail loudly, partial
inputs must degrade gracefully — never silently corrupt an analysis."""

import json

import pytest

from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
from repro.datasets.io import read_radio_events, read_transactions, write_jsonl
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.roaming.billing import WholesaleRater
from repro.roaming.clearing import ClearingHouse, UsageStatement, statements_from_tap
from repro.signaling.cdr import data_xdr
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode


@pytest.fixture(scope="module")
def world():
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=5, seed=2))
    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    return eco, CatalogBuilder(eco.tac_db, eco.uk_sectors, labeler)


class TestCorruptFiles:
    def test_truncated_json_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"device_id": "a", "ts": 1.0, "sim_pl')
        with pytest.raises(json.JSONDecodeError):
            read_transactions(path)

    def test_wrong_schema_raises_key_error(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        write_jsonl(path, [{"some": "other", "schema": 1}])
        with pytest.raises(KeyError):
            read_radio_events(path)

    def test_invalid_enum_value_raises(self, tmp_path):
        path = tmp_path / "enum.jsonl"
        write_jsonl(
            path,
            [{
                "device_id": "d", "ts": 1.0, "sim_plmn": "23410",
                "visited_plmn": "23410", "type": "teleport", "result": "OK",
            }],
        )
        with pytest.raises(ValueError):
            read_transactions(path)

    def test_out_of_domain_value_raises(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        write_jsonl(
            path,
            [{
                "device_id": "d", "ts": -5.0, "sim_plmn": "23410",
                "visited_plmn": "23410", "type": "attach", "result": "OK",
            }],
        )
        with pytest.raises(ValueError):
            read_transactions(path)


def _summaries(builder, events):
    return builder.build_from_columns(*from_record_streams(events, []))[1]


class TestPartialVisibility:
    def _event(self, eco, sector_id, device="d"):
        return RadioEvent(
            device_id=device, timestamp=0.0, sim_plmn=str(eco.uk_mno.plmn),
            tac=35000001, sector_id=sector_id, interface=RadioInterface.GB,
            event_type=MessageType.ATTACH, result=ResultCode.OK,
        )

    def test_unknown_sector_degrades_mobility_not_counts(self, world):
        eco, builder = world
        good = next(s.sector_id for s in eco.uk_sectors)
        events = [self._event(eco, good), self._event(eco, 10**7)]
        summaries = _summaries(builder, events)
        summary = summaries["d"]
        assert summary.n_events == 2           # counting survives
        assert summary.mean_gyration_km is not None  # mobility from the known one

    def test_all_unknown_sectors_drop_mobility_only(self, world):
        eco, builder = world
        events = [self._event(eco, 10**7)]
        summaries = _summaries(builder, events)
        assert summaries["d"].n_events == 1
        assert summaries["d"].mean_gyration_km is None

    def test_conflicting_sim_plmn_first_wins(self, world):
        """A device ID colliding across SIMs is attributed to the first
        SIM observed — documented, deterministic behaviour."""
        eco, builder = world
        good = next(s.sector_id for s in eco.uk_sectors)
        first = self._event(eco, good)
        second = RadioEvent(
            device_id="d", timestamp=1.0, sim_plmn="21410", tac=35000001,
            sector_id=good, interface=RadioInterface.GB,
            event_type=MessageType.ATTACH, result=ResultCode.OK,
        )
        summaries = _summaries(builder, [first, second])
        assert summaries["d"].sim_plmn == str(eco.uk_mno.plmn)


class TestClearingUnderCorruption:
    def test_inflated_home_books_detected(self, world):
        eco, _ = world
        rater = WholesaleRater(str(eco.uk_mno.plmn))
        records = [
            data_xdr("a", 0.0, "21410", str(eco.uk_mno.plmn), 10**7, "apn.x")
        ]
        visited = statements_from_tap(rater.rate_records(records))
        # The home operator "loses" 40% of the usage.
        home = [
            UsageStatement(
                home_plmn=s.home_plmn, visited_plmn=s.visited_plmn,
                service=s.service, units=s.units * 0.6,
                charge_eur=s.charge_eur * 0.6, n_records=s.n_records,
            )
            for s in visited
        ]
        settlement = ClearingHouse(tolerance=0.05).reconcile(visited, home)
        assert settlement.discrepancies
        assert settlement.disputed_eur > 0

    def test_empty_books_both_sides(self):
        settlement = ClearingHouse().reconcile([], [])
        assert settlement.agreed_eur == 0.0
        assert settlement.n_lanes == 0
