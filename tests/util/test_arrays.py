"""Tests for GrowableArray."""

import numpy as np
import pytest

from repro.util.arrays import GrowableArray


def test_append_and_indexing():
    array = GrowableArray()
    for value in range(100):
        position = array.append(value)
        assert position == value
    assert len(array) == 100
    assert array[0] == 0
    assert array[-1] == 99
    with pytest.raises(IndexError):
        array[100]
    with pytest.raises(IndexError):
        array[-101]


def test_setitem():
    array = GrowableArray()
    array.append(5)
    array[0] = 9
    assert array[0] == 9
    with pytest.raises(IndexError):
        array[3] = 1


def test_view_is_zero_copy_prefix():
    array = GrowableArray()
    for value in range(10):
        array.append(value)
    view = array.view()
    assert len(view) == 10
    view[3] = 99  # writes through
    assert array[3] == 99


def test_growth_beyond_initial_capacity():
    array = GrowableArray(capacity=2)
    for value in range(1000):
        array.append(value)
    assert len(array) == 1000
    assert list(array.view()[:5]) == [0, 1, 2, 3, 4]


def test_extend_bulk():
    array = GrowableArray()
    array.append(1)
    array.extend(np.arange(500))
    assert len(array) == 501
    assert array[500] == 499


def test_init_from_existing_array():
    array = GrowableArray(np.array([7, 8, 9]))
    assert len(array) == 3
    array.append(10)
    assert list(array.view()) == [7, 8, 9, 10]
