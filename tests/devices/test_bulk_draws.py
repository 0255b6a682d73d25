"""The traffic draws' bulk derivations equal the per-call code, bit for bit.

:func:`~repro.devices.traffic_models.sample_event_hours` draws each
rejection round's candidates and acceptance uniforms in one
``rng.random(2 * batch)`` call, where the code it replaced made two
``rng.random(batch)`` calls and computed weights for the FLAT shape
too; :func:`~repro.devices.traffic_models.session_bytes` turns a column
of lognormal draws into byte counts at once, where the simulator
converted each draw as it came.  The references below are that code.
CI runs this module with ``-W error::RuntimeWarning``, so an overflow
in a bulk pass fails instead of warning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.traffic_models import (
    DiurnalShape,
    TrafficModel,
    diurnal_weights,
    sample_event_hours,
    session_bytes,
)

seeds = st.integers(0, 2**63 - 1)


def reference_weights(shape, hours):
    if shape is DiurnalShape.FLAT:
        return np.ones_like(hours)
    if shape is DiurnalShape.HUMAN:
        return 1.0 + 0.9 * np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi)
    return 0.25 + 8.0 * np.exp(-(((hours - 2.0) % 24.0) ** 2) / 2.0)


def reference_event_hours(count, shape, rng):
    """The rejection loop with two ``rng.random(batch)`` calls per round."""
    if count <= 0:
        return np.empty(0)
    envelope = {
        DiurnalShape.FLAT: 1.0,
        DiurnalShape.HUMAN: 1.9,
        DiurnalShape.NIGHTLY_BATCH: 8.25,
    }[shape]
    hours = np.empty(count)
    filled = 0
    while filled < count:
        batch = max(16, 2 * (count - filled))
        candidates = rng.random(batch) * 24.0
        accept = rng.random(batch) * envelope <= reference_weights(shape, candidates)
        accepted = candidates[accept][: count - filled]
        hours[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
    return hours


def reference_bytes(normal):
    return max(1, int(float(np.exp(normal)) * 1_000_000))


@given(shape=st.sampled_from(DiurnalShape), count=st.integers(0, 400), seed=seeds)
@settings(max_examples=300, deadline=None)
def test_event_hours_equal_the_two_draw_loop(shape, count, seed):
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    hours = sample_event_hours(count, shape, ours)
    assert hours.tobytes() == reference_event_hours(count, shape, reference).tobytes()
    # The generator is left where the loop left it.
    assert ours.random() == reference.random()


@pytest.mark.parametrize("shape", list(DiurnalShape))
def test_event_hours_of_a_heavy_device_day_equal_the_two_draw_loop(shape):
    ours, reference = np.random.default_rng(11), np.random.default_rng(11)
    hours = sample_event_hours(20_000, shape, ours)
    assert hours.tobytes() == reference_event_hours(20_000, shape, reference).tobytes()
    assert ours.random() == reference.random()


@given(
    shape=st.sampled_from(DiurnalShape),
    hours=st.lists(st.floats(min_value=0.0, max_value=24.0, exclude_max=True), max_size=64),
)
def test_weights_equal_the_one_expression_arithmetic(shape, hours):
    hours = np.array(hours, dtype=float)
    assert diurnal_weights(shape, hours).tobytes() == reference_weights(shape, hours).tobytes()


@given(
    normals=st.lists(
        st.floats(min_value=-800.0, max_value=29.8, allow_nan=False), max_size=200
    )
)
def test_bulk_bytes_equal_the_per_draw_bytes(normals):
    expected = [reference_bytes(normal) for normal in normals]
    sizes = session_bytes(np.array(normals, dtype=float))
    assert sizes.dtype == np.int64
    assert sizes.tolist() == expected


@given(
    mu=st.floats(-8.0, 8.0),
    sigma=st.floats(0.0, 3.0),
    n=st.integers(0, 500),
    seed=seeds,
)
@settings(deadline=None)
def test_bulk_bytes_of_lognormal_draws_equal_the_per_draw_bytes(mu, sigma, n, seed):
    normals = np.random.default_rng(seed).normal(mu, sigma, n)
    normals = normals[normals <= 29.8]
    expected = [reference_bytes(normal) for normal in normals.tolist()]
    assert session_bytes(normals).tolist() == expected


@pytest.mark.parametrize("normal", [29.9, 40.0, 600.0, 700.0])
def test_bytes_past_int64_are_refused_not_wrapped(normal):
    """A draw of more bytes than int64 holds raises, as appending it to
    an int64 column did, instead of wrapping in the cast."""
    with pytest.raises(OverflowError):
        session_bytes(np.array([0.0, normal, 1.0]))


def test_an_overflowing_exp_warns_and_is_refused():
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(OverflowError):
            session_bytes(np.array([1.0, 800.0]))


def test_one_session_draws_one_normal_and_uses_the_bulk_bytes():
    model = TrafficModel(
        signaling_per_day=1.0,
        calls_per_day=1.0,
        data_sessions_per_day=1.0,
        data_mb_mu=0.5,
        data_mb_sigma=1.2,
    )
    ours, reference = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        assert model.draw_session_bytes(ours) == reference_bytes(reference.normal(0.5, 1.2))
    assert ours.random() == reference.random()
    with pytest.raises(OverflowError):
        TrafficModel(1.0, 1.0, 1.0, data_mb_mu=40.0, data_mb_sigma=0.0).draw_session_bytes(ours)
