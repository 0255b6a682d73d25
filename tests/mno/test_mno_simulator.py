"""Tests for the MNO event simulator."""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

from repro.cellular.rats import RAT
from repro.devices.device import Device
from repro.mno import MNOConfig, MNOSimulator, PopulationBuilder, simulate_mno_dataset
from repro.mno import simulator as simulator_module
from repro.signaling.probes import ProbeArray


class TestDatasetStructure:
    def test_ground_truth_covers_population(self, mno_dataset):
        # Every device that produced records has ground truth.
        assert mno_dataset.device_ids <= set(mno_dataset.ground_truth)

    def test_records_time_ordered(self, mno_dataset):
        radio_ts = [e.timestamp for e in mno_dataset.radio_events]
        service_ts = [r.timestamp for r in mno_dataset.service_records]
        assert radio_ts == sorted(radio_ts)
        assert service_ts == sorted(service_ts)

    def test_timestamps_within_window(self, mno_dataset):
        window_s = mno_dataset.window_days * 86400.0
        assert all(0 <= e.timestamp < window_s for e in mno_dataset.radio_events)

    def test_sector_ids_resolve_in_catalog(self, mno_dataset):
        for event in mno_dataset.radio_events[:2000]:
            sector = mno_dataset.sector_catalog.by_id(event.sector_id)
            assert sector.rat is event.interface.rat

    def test_outbound_roamers_have_no_radio_events(self, mno_dataset):
        outbound = {
            d
            for d, g in mno_dataset.ground_truth.items()
            if g.profile.endswith("outbound")
        }
        assert outbound
        radio_devices = {e.device_id for e in mno_dataset.radio_events}
        assert not outbound & radio_devices

    def test_outbound_roamers_do_have_service_records(self, mno_dataset):
        outbound = {
            d
            for d, g in mno_dataset.ground_truth.items()
            if g.profile.endswith("outbound")
        }
        service_devices = {r.device_id for r in mno_dataset.service_records}
        assert outbound & service_devices

    def test_probe_array_sees_every_radio_event(self, mno_dataset):
        # The Fig.-4 deployment (MME+MSC+SGSN) has full interface coverage.
        array = ProbeArray()
        sample = mno_dataset.radio_events[:5000]
        assert array.observe(sample) == len(sample)

    def test_voice_apn_invariant(self, mno_dataset):
        for record in mno_dataset.service_records[:5000]:
            if record.is_voice:
                assert record.apn is None


class TestDeterminism:
    def test_same_seed_reproduces(self, eco):
        a = simulate_mno_dataset(eco, MNOConfig(n_devices=120, seed=5))
        b = simulate_mno_dataset(eco, MNOConfig(n_devices=120, seed=5))
        assert len(a.radio_events) == len(b.radio_events)
        assert len(a.service_records) == len(b.service_records)
        assert a.device_ids == b.device_ids


class TestBehaviouralInvariants:
    def test_rat_usage_respects_plan(self, mno_dataset):
        # Devices marked 2G-only in ground truth must never appear on
        # 3G/4G interfaces: roaming SMIP meters are the canonical case.
        roaming_meters = {
            d for d, g in mno_dataset.ground_truth.items() if g.smip_roaming
        }
        for event in mno_dataset.radio_events:
            if event.device_id in roaming_meters:
                assert event.rat is RAT.GSM

    def test_smip_native_uses_dedicated_sim_range(self, mno_dataset):
        natives = {
            d for d, g in mno_dataset.ground_truth.items() if g.smip_native
        }
        for event in mno_dataset.radio_events:
            if event.device_id in natives:
                assert event.sim_plmn == str(mno_dataset.observer.plmn)

    def test_voice_only_machines_send_no_data(self, mno_dataset):
        voice_only = {
            d
            for d, g in mno_dataset.ground_truth.items()
            if g.profile.startswith("voice_only")
        }
        assert voice_only
        for record in mno_dataset.service_records:
            if record.device_id in voice_only:
                assert record.is_voice

    def test_summary_counts(self, mno_dataset):
        summary = mno_dataset.summary()
        assert summary["devices"] > 0
        assert summary["radio_events"] == len(mno_dataset.radio_events)


class TestSessionStructure:
    def test_first_event_of_device_day_is_attach(self, mno_dataset):
        from collections import defaultdict
        from repro.signaling.procedures import MessageType

        first = {}
        last = {}
        counts = defaultdict(int)
        for event in mno_dataset.radio_events:
            key = (event.device_id, event.day)
            counts[key] += 1
            if key not in first or event.timestamp < first[key].timestamp:
                first[key] = event
            if key not in last or event.timestamp >= last[key].timestamp:
                last[key] = event
        checked = 0
        for key, event in first.items():
            if counts[key] >= 2:
                assert event.event_type is MessageType.ATTACH
                assert last[key].event_type is MessageType.DETACH
                checked += 1
            if checked > 500:
                break
        assert checked > 50

    def test_mid_session_dominated_by_rau(self, mno_dataset):
        from collections import Counter
        from repro.signaling.procedures import MessageType

        counter = Counter(e.event_type for e in mno_dataset.radio_events)
        assert counter[MessageType.ROUTING_AREA_UPDATE] > counter[MessageType.AUTHENTICATION]


class TestRowChecks:
    """The checks row construction makes hold on the emitted columns."""

    CONFIG = MNOConfig(n_devices=40, seed=5)

    @pytest.fixture()
    def population(self, eco):
        return PopulationBuilder(eco, self.CONFIG).build()

    def _simulate(self, eco, population):
        return MNOSimulator(eco, self.CONFIG).simulate(population)

    def test_bad_sim_plmn_rejected(self, eco, population, monkeypatch):
        monkeypatch.setattr(Device, "sim_plmn", property(lambda self: "ABCDE"))
        with pytest.raises(ValueError, match="PLMN must be 5-6 digits"):
            self._simulate(eco, population)

    def test_out_of_range_tac_rejected(self, eco, population, monkeypatch):
        monkeypatch.setattr(Device, "tac", property(lambda self: 10**8))
        with pytest.raises(ValueError, match="TAC must be 8 digits"):
            self._simulate(eco, population)

    def test_negative_call_duration_rejected(self, eco, population):
        """A call's duration is its generator's exponential draw, as drawn."""
        simulator = MNOSimulator(eco, self.CONFIG)
        simulator._rng = _Replaced(simulator._rng, exponential=lambda scale: -1.0)
        with pytest.raises(ValueError, match="negative duration"):
            simulator.simulate(population)

    def test_negative_byte_count_rejected(self, eco, population, monkeypatch):
        """Sessions' bytes are derived from their draws in one pass."""
        monkeypatch.setattr(
            simulator_module,
            "session_bytes",
            lambda normals: np.full(len(normals), -1, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="negative byte count"):
            self._simulate(eco, population)

    def test_session_bytes_past_int64_rejected(self, eco, population):
        """A session of more bytes than an int64 column holds is refused,
        not wrapped in the bulk cast."""
        heavy = [
            dataclasses.replace(
                plan, traffic=dataclasses.replace(plan.traffic, data_mb_mu=40.0)
            )
            for plan in population
        ]
        with pytest.raises(OverflowError):
            self._simulate(eco, heavy)


class _Replaced:
    """A generator with some of its draw methods replaced."""

    def __init__(self, rng, **methods):
        self._rng = rng
        self._methods = methods

    def __getattr__(self, name):
        return self._methods.get(name) or getattr(self._rng, name)
