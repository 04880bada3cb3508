"""The dense-domain path of the operator kernels returns exactly what the
sort path returns.

Integer keys over a span no wider than the input take presence maps,
per-key counts and 16-bit radix passes instead of ``np.unique``,
``searchsorted`` and the ``int64`` argsort. Each property below runs a
kernel twice on the same random keys — once as is, once with
:func:`~repro.util.arrays.dense_span` forced to say "not dense" — and
asserts identical arrays: same pairs in the same order, same group
numbering, same first positions.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import kernels
from repro.util.arrays import dense_span, stable_argsort, stable_order

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


@contextmanager
def sort_path():
    """Every kernel call inside takes the sort path."""
    with mock.patch.object(kernels, "dense_span", lambda keys, budget: (0, 0)):
        yield


@contextmanager
def counting_dense():
    """Count the kernel calls :func:`dense_span` let through."""
    taken = []

    def spy(keys, budget):
        low, span = dense_span(keys, budget)
        taken.append(span > 0)
        return low, span

    with mock.patch.object(kernels, "dense_span", spy):
        yield taken


def both_paths(kernel, *args):
    with counting_dense() as taken:
        dense = kernel(*args)
    with sort_path():
        sort = kernel(*args)
    return dense, sort, taken


def assert_same(dense, sort):
    assert len(dense) == len(sort)
    for got, want in zip(dense, sort):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# keys around a random origin, spread so that the span lands on either
# side of the input length; ok masks may switch every row off
_origin = st.sampled_from([0, -7, 1 << 40, -(1 << 40), INT64_MIN + 100, INT64_MAX - 5000])
_side = st.lists(st.tuples(st.integers(0, 60), st.booleans()), max_size=30)


def _keys(origin, side, stretch):
    keys = np.array([origin + offset * stretch for offset, _ok in side], dtype=np.int64)
    return keys, np.array([ok for _offset, ok in side], dtype=bool)


@given(_origin, _side, _side, st.sampled_from([1, 2, 3]), st.integers(-80, 80))
@settings(max_examples=300, deadline=None)
def test_join_pairs_dense_equals_sort(origin, left, right, stretch, shift):
    left_key, left_ok = _keys(origin + shift, left, stretch)  # probes outside the span too
    right_key, right_ok = _keys(origin, right, stretch)
    dense, sort, _taken = both_paths(kernels.join_pairs, left_key, left_ok, right_key, right_ok)
    assert_same(dense, sort)


def test_join_pairs_probe_keys_at_the_int64_limits():
    """A probe key far outside the build side's span joins nothing: it is
    range-checked before ``low`` is subtracted, which could wrap."""
    right_key = np.arange(-2, 3, dtype=np.int64)
    left_key = np.array([INT64_MIN, INT64_MAX, -2, 2, 3, -3, INT64_MIN + 1], dtype=np.int64)
    ok = np.ones(len(left_key), dtype=bool)
    dense, sort, taken = both_paths(kernels.join_pairs, left_key, ok, right_key, np.ones(5, bool))
    assert taken == [True]
    assert_same(dense, sort)
    left_index, right_index, counts = dense
    assert left_index.tolist() == [2, 3] and right_index.tolist() == [0, 4]
    assert counts.tolist() == [0, 0, 1, 1, 0, 0, 0]
    # ... and a build side at the top of int64, probed from the bottom
    right_key = INT64_MAX - np.arange(3, dtype=np.int64)
    left_key = np.array([INT64_MIN, INT64_MIN + 2, INT64_MAX], dtype=np.int64)
    dense, sort, taken = both_paths(kernels.join_pairs, left_key, ok[:3], right_key, ok[:3])
    assert taken == [True]
    assert_same(dense, sort)
    assert dense[2].tolist() == [0, 0, 1]


def test_join_pairs_empty_and_all_null_sides():
    keys = np.arange(5, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    for args in (
        (keys, np.ones(5, bool), none, np.ones(0, bool)),
        (none, np.ones(0, bool), keys, np.ones(5, bool)),
        (keys, np.zeros(5, bool), keys, np.ones(5, bool)),
        (keys, np.ones(5, bool), keys, np.zeros(5, bool)),
    ):
        dense, sort, _taken = both_paths(kernels.join_pairs, *args)
        assert_same(dense, sort)
        assert not len(dense[0])


def test_join_pairs_budget_is_both_sides():
    """The span may be as wide as both inputs together, and no wider."""
    right = np.array([0, 9], dtype=np.int64)  # span 10
    for left_len, dense_expected in ((8, True), (7, False)):
        left = np.arange(left_len, dtype=np.int64)
        dense, sort, taken = both_paths(
            kernels.join_pairs, left, np.ones(left_len, bool), right, np.ones(2, bool)
        )
        assert taken == [dense_expected]
        assert_same(dense, sort)


@given(_origin, _side, _side, st.sampled_from([1, 2, 40]))
@settings(max_examples=300, deadline=None)
def test_group_ids_dense_equals_sort(origin, first, second, stretch):
    length = min(len(first), len(second))
    columns = [
        _keys(origin, first[:length], stretch)[0],
        _keys(-origin // 2, second[:length], 1)[0],
    ]
    for used in (columns[:1], columns):
        dense, sort, _taken = both_paths(kernels.group_ids, used, length)
        assert_same(dense, sort)


@given(_origin, _side)
@settings(max_examples=200, deadline=None)
def test_unique_inverse_equals_np_unique(origin, side):
    keys, _ok = _keys(origin, side, 1)
    dense, sort, _taken = both_paths(kernels.unique_inverse, keys)
    assert_same(dense, sort)
    assert_same(sort, np.unique(keys, return_inverse=True))


@pytest.mark.parametrize("span", [1, 2, 1 << 16, (1 << 16) + 1, 1 << 20])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stable_order_is_the_stable_argsort(span, data):
    size = data.draw(st.integers(0, 300))
    offsets = data.draw(
        st.lists(st.integers(0, span - 1), min_size=size, max_size=size).map(
            lambda values: np.array(values, dtype=np.int64)
        )
    )
    # the span's ends are in there, so both 16-bit halves are exercised
    offsets = np.concatenate([offsets, [0, span - 1, span - 1, 0]])
    expected = np.argsort(offsets, kind="stable")
    got = stable_order(offsets, span)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(stable_argsort(offsets - 5), expected)


def test_dense_span_rule():
    keys = np.array([-3, 0, 4], dtype=np.int64)  # span 8
    assert dense_span(keys, 8) == (-3, 8)
    assert dense_span(keys, 7)[1] == 0  # the budget boundary
    assert dense_span(keys.astype(np.float64), 100)[1] == 0
    assert dense_span(np.empty(0, dtype=np.int64), 100)[1] == 0
    assert dense_span(np.array([7, 7]), 1) == (7, 1)  # a span of one
    # the whole int64 range: no wrap in max - min, and far over any budget
    assert dense_span(np.array([INT64_MIN, INT64_MAX]), 1 << 70)[1] == 0
    # beyond two 16-bit passes the sort path stays, whatever the budget
    assert dense_span(np.array([0, (1 << 32) - 1]), 1 << 40)[1] == 1 << 32
    assert dense_span(np.array([0, 1 << 32]), 1 << 40)[1] == 0


def test_sort_path_untouched_for_floats_and_wide_spans():
    """A float key or a span wider than the input never reaches the radix
    passes."""
    calls = []
    with mock.patch.object(kernels, "stable_order", lambda *a: calls.append(a)):
        kernels.join_pairs(
            np.arange(4.0), np.ones(4, bool), np.arange(4.0), np.ones(4, bool)
        )
        kernels.join_pairs(
            np.array([0, 100]), np.ones(2, bool), np.array([0, 100]), np.ones(2, bool)
        )
    assert not calls
    assert stable_argsort(np.array([5, 1 << 40, 5])).tolist() == [0, 2, 1]
