"""Property tests: every encoding is lossless and consistent."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.columnstore.compression import (
    BitPackedVector,
    RunLengthVector,
    SparseVector,
    choose_encoding,
)

vid_lists = st.lists(st.integers(-1, 500), max_size=200)


@given(vid_lists)
def test_choose_encoding_round_trips(vids):
    array = np.asarray(vids, dtype=np.int64)
    encoded = choose_encoding(array)
    assert np.array_equal(encoded.decode(), array)


@given(vid_lists)
def test_all_encodings_agree(vids):
    array = np.asarray(vids, dtype=np.int64)
    encodings = [BitPackedVector(array), RunLengthVector(array)]
    if len(array):
        encodings.append(SparseVector(array, int(array[0])))
    reference = encodings[0].decode()
    for encoding in encodings[1:]:
        assert np.array_equal(encoding.decode(), reference)


@given(st.lists(st.integers(-1, 500), min_size=1, max_size=200), st.data())
def test_take_matches_positions(vids, data):
    array = np.asarray(vids, dtype=np.int64)
    encoded = choose_encoding(array)
    positions = data.draw(
        st.lists(st.integers(0, len(array) - 1), min_size=1, max_size=20)
    )
    positions = np.asarray(positions, dtype=np.int64)
    assert np.array_equal(encoded.take(positions), array[positions])
