"""Property tests: dictionary encoding invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.compression import NULL_VID
from repro.columnstore.dictionary import AppendDictionary, SortedDictionary

values_strategy = st.lists(st.text(max_size=8), max_size=60)


@given(values_strategy)
def test_sorted_dictionary_round_trip(values):
    dictionary = SortedDictionary(values)
    for value in values:
        vid = dictionary.vid_of(value)
        assert vid != NULL_VID
        assert dictionary.value_of(vid) == value


@given(values_strategy)
def test_sorted_dictionary_vid_order_equals_value_order(values):
    dictionary = SortedDictionary(values)
    decoded = [dictionary.value_of(v) for v in range(len(dictionary))]
    assert decoded == sorted(set(values))


@given(values_strategy, values_strategy)
def test_encode_many_remap_preserves_lookups(first, second):
    dictionary = SortedDictionary(first)
    before = {value: dictionary.vid_of(value) for value in first}
    remap = dictionary.encode_many(second)
    for value, old_vid in before.items():
        new_vid = remap[old_vid] if remap is not None else old_vid
        assert dictionary.value_of(new_vid) == value
    for value in second:
        assert dictionary.value_of(dictionary.vid_of(value)) == value


@given(values_strategy)
def test_append_dictionary_ids_are_stable(values):
    dictionary = AppendDictionary()
    first_ids = [dictionary.encode(value) for value in values]
    second_ids = [dictionary.encode(value) for value in values]
    assert first_ids == second_ids
    for value, vid in zip(values, first_ids):
        assert dictionary.value_of(vid) == value


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
def test_sorted_dictionary_range_vids_cover_exactly(values):
    dictionary = SortedDictionary(values)
    low = min(values)
    high = max(values)
    lo, hi = dictionary.range_vids(low, high)
    covered = set(dictionary.values[lo:hi])
    assert covered == {v for v in set(values) if low <= v <= high}


numbers = st.one_of(
    st.lists(st.integers(-50, 50), max_size=40).map(lambda values: (values, np.dtype(np.int64))),
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 1e300]), max_size=40).map(
        lambda values: (values, np.dtype(np.float64))
    ),
)


@given(numbers, st.lists(st.integers(0, 39), max_size=40), st.booleans())
def test_array_dictionary_matches_the_list_dictionary(numbered, picks, with_nulls):
    """The array flavour of a numeric column answers exactly what the
    Python-list flavour answers: the same remap (or ``None``), the same
    sorted values, and one ``vids_of`` equal to ``vid_of`` per value."""
    values, dtype = numbered
    first = values[: len(values) // 2]
    second = [values[pick] for pick in picks if pick < len(values)] + values[len(values) // 2 :]
    if with_nulls:
        second = second + [None]
    as_list, as_array = SortedDictionary(first), SortedDictionary(first, dtype)
    remaps = as_list.encode_many(second), as_array.encode_many(second)
    assert (remaps[0] is None) == (remaps[1] is None)
    if remaps[0] is not None:
        assert remaps[0].tolist() == remaps[1].tolist()
    assert as_list.values == as_array.values.tolist()
    probe = second + [12345, None]
    assert as_array.vids_of(probe).tolist() == [as_list.vid_of(value) for value in probe]
    assert [as_array.vid_of(value) for value in probe] == [as_list.vid_of(value) for value in probe]
    vids = np.asarray([as_list.vid_of(value) for value in probe])
    assert as_array.decode_many(vids) == as_list.decode_many(vids)
    assert all(type(value) is type(dtype.type(0).item()) for value in as_array.decode_many(vids) if value is not None)
