"""Pinned output bytes of the MNO simulators.

The golden catalog digests are order-free, so they cannot see row order
or the order strings enter the interning pools.  These pins hash the
packed column block of the simulated streams, which fixes both: any
change to the RNG stream, the row order or the interning order of the
simulators fails here.
"""

import hashlib

import pytest

from repro.columnar.blocks import pack_columns
from repro.columnar.store import from_record_streams
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.mno.streaming import StreamingMNOSimulator


def _digest(radio, service) -> str:
    block = pack_columns(*from_record_streams(list(radio), list(service)))
    return hashlib.sha256(block).hexdigest()


@pytest.fixture(scope="module")
def world_30():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


@pytest.mark.parametrize(
    "seed, n_radio, n_service, digest",
    [
        (3, 12_764, 7_935, "ba0ee565e349757776b8f987ebab0c6891b40b894b46c322afeee4d45456d285"),
        (9, 10_998, 7_302, "9a309fdc789f468668d3766df0d172d6811ed801f9a99d2c999f071e8b442d72"),
    ],
    ids=["seed3", "seed9"],
)
def test_simulate_bytes_pinned(world_30, seed, n_radio, n_service, digest):
    dataset = simulate_mno_dataset(world_30, MNOConfig(n_devices=60, seed=seed))
    assert len(dataset.radio_events) == n_radio
    assert len(dataset.service_records) == n_service
    assert _digest(dataset.radio_events, dataset.service_records) == digest


def test_simulate_bytes_pinned_denser_world():
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=80, seed=11))
    dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=30, seed=7))
    assert (len(dataset.radio_events), len(dataset.service_records)) == (5_840, 3_539)
    assert _digest(dataset.radio_events, dataset.service_records) == (
        "703d077f294f5eb872b869b1201be222e05bbe4dc17c35e4132b853f6e880a88"
    )


def test_streaming_day_bytes_pinned():
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=40, seed=11))
    sim = StreamingMNOSimulator(eco, MNOConfig(n_devices=120, seed=9))
    batch = sim.generate_day(2)
    assert batch.n_records == 1_565
    assert _digest(batch.radio_events, batch.service_records) == (
        "f1e41e4e82e94aa956c47f31fb105be1424a05ca0b012f58aabce78edd06d7de"
    )
