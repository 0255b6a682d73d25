"""The catalog kernel's row order equals the four-key ``np.lexsort``.

``repro.core.catalog._row_order`` sorts a stream's rows by (device rank,
timestamp, tie key) with a stable sort of the timestamps, a radix sort
of the ranks and a ``lexsort`` of the tied rows alone.  Its reference is
the sort the kernel ran before, ``np.lexsort((tie, ts, ts // 86400,
rank))``, whose day key every store implies (``days == timestamps //
86400``).  The tie key is the sector (int64) for radio rows and the
duration (float) for service rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import _row_order

#: Ranks on both sides of the one-pass radix sort's 16 bits.
ranks = st.one_of(
    st.integers(0, 3),
    st.sampled_from([65_534, 65_535, 65_536, 65_537, 131_071, 2**20 + 3, 2**31 - 1]),
)
#: Few values, so timestamps tie: -0.0 and 0.0 compare equal, and day
#: edges and negative days sit among them.
timestamps = st.one_of(
    st.sampled_from([0.0, -0.0, 5.0, -3.5, 86_399.5, 86_400.0, 86_400.0 * 30, 1e15]),
    st.floats(-1e12, 1e12, allow_nan=False),
)
sectors = st.one_of(
    st.integers(-2, 2), st.sampled_from([-(2**63), 2**31 + 5, 2**63 - 1])
)
durations = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, 60.0]), st.floats(-1e6, 1e6, allow_nan=False)
)


def _streams(ties):
    """Rows of (rank, timestamp, tie), some repeated, in drawn or in
    time order."""
    rows = st.lists(st.tuples(ranks, timestamps, ties), max_size=40)
    return st.tuples(rows, st.lists(st.integers(0, 39), max_size=10), st.booleans())


def _columns(stream, tie_dtype):
    rows, repeats, time_sorted = stream
    rows = rows + [rows[i] for i in repeats if i < len(rows)]
    if time_sorted:
        rows.sort(key=lambda row: row[1])
    rank = np.array([row[0] for row in rows], dtype=np.int32)
    timestamp = np.array([row[1] for row in rows], dtype=np.float64)
    tie = np.array([row[2] for row in rows], dtype=tie_dtype)
    return rank, timestamp, tie


def _assert_lexsort_order(rank, timestamp, tie):
    expected = np.lexsort((tie, timestamp, timestamp // 86400, rank))
    np.testing.assert_array_equal(_row_order(rank, timestamp, tie), expected)


@given(stream=_streams(sectors))
@settings(max_examples=400, deadline=None)
def test_radio_order_is_the_four_key_lexsort(stream):
    _assert_lexsort_order(*_columns(stream, np.int64))


@given(stream=_streams(durations))
@settings(max_examples=400, deadline=None)
def test_service_order_is_the_four_key_lexsort(stream):
    _assert_lexsort_order(*_columns(stream, np.float64))


def test_signed_zero_timestamps_tie_and_order_by_the_tie_key():
    rank = np.array([1, 0, 0, 0, 0], dtype=np.int32)
    timestamp = np.array([0.0, 0.0, -0.0, 0.0, -0.0])
    tie = np.array([0, 9, 3, 3, -1], dtype=np.int64)
    np.testing.assert_array_equal(_row_order(rank, timestamp, tie), [4, 2, 3, 1, 0])
    _assert_lexsort_order(rank, timestamp, tie)


def test_empty_stream_has_an_empty_order():
    empty = np.array([], dtype=np.float64)
    order = _row_order(np.array([], dtype=np.int32), empty, empty)
    assert order.shape == (0,)
