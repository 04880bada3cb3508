"""Tests for main/delta column fragments."""

import datetime as dt

import numpy as np

from repro.columnstore.column import DeltaColumn, MainColumn
from repro.core import types


def everything(fragment):
    return fragment.take(np.arange(len(fragment)))


def test_main_build_and_decode_ints():
    column = MainColumn.build(types.INTEGER, [3, 1, 2, 1])
    array = everything(column)
    assert array.dtype == np.int64
    assert list(array) == [3, 1, 2, 1]


def test_main_with_nulls_decodes_to_exact_integers():
    column = MainColumn.build(types.INTEGER, [1, None, 3])
    array = everything(column)
    assert array.dtype == object
    assert [(type(value), value) for value in array] == [(int, 1), (type(None), None), (int, 3)]


def test_main_strings_decode_to_objects():
    column = MainColumn.build(types.VARCHAR, ["b", None, "a"])
    assert list(everything(column).decode()) == ["b", None, "a"]


def test_values_at_exact():
    column = MainColumn.build(types.DATE, [dt.date(2014, 1, 1), dt.date(2013, 5, 5)])
    assert column.values_at(np.array([1])) == [dt.date(2013, 5, 5)]


def test_unsorted_dictionary_build():
    column = MainColumn.build(types.VARCHAR, ["b", "a"], sorted_dictionary=False)
    assert column.dictionary.values == ["b", "a"]
    assert list(everything(column).decode()) == ["b", "a"]


def test_delta_append_and_array():
    delta = DeltaColumn(types.DOUBLE)
    delta.extend([1.5, None, 2.0])
    array = everything(delta)
    assert array.dtype == np.float64
    assert np.isnan(array[1])
    assert delta.values_at(np.array([0, 2])) == [1.5, 2.0]


def test_delta_bool_column():
    delta = DeltaColumn(types.BOOLEAN)
    delta.extend([True, False])
    assert everything(delta).dtype == np.bool_


def test_memory_accounting_positive():
    column = MainColumn.build(types.VARCHAR, ["hello"] * 100)
    assert column.memory_bytes() > 0
    delta = DeltaColumn(types.VARCHAR)
    delta.extend(["x"])
    assert delta.memory_bytes() > 0


# -- position indexes ----------------------------------------------------------------


def test_main_positions_of_names_every_row_of_a_value_id():
    column = MainColumn.build(types.VARCHAR, ["b", "a", None, "b", "c", "b"])
    assert column.positions_of("b").tolist() == [0, 3, 5]  # ascending: every version
    assert column.positions_of("a").tolist() == [1]
    assert column.positions_of("zz").tolist() == []  # absent: NULL_VID, never the NULL row
    assert column.positions_of(None).tolist() == []
    assert MainColumn(types.INTEGER).positions_of(0).tolist() == []
    unsorted = MainColumn.build(types.INTEGER, [5, 3, 5, 4], sorted_dictionary=False)
    assert unsorted.positions_of(5).tolist() == [0, 2]


def test_delta_positions_of_catches_up_with_appends():
    column = DeltaColumn(types.INTEGER)
    assert column.positions_of(7).tolist() == []
    column.extend([7, None, 8])
    assert column.positions_of(7).tolist() == [0] and column.positions_of(None).tolist() == []
    column.extend([7])
    column.extend([9])
    column.extend([7])
    assert column.positions_of(7).tolist() == [0, 3, 5]
    assert column.positions_of(9).tolist() == [4] and column.positions_of(10).tolist() == []
    # a key's first version costs an int, not a list
    assert column._positions[8] == 2 and column._positions[7] == [0, 3, 5]


def test_derived_state_is_not_pickled():
    """Physical savepoints and tiering payloads pickle fragments: the decode
    table and the position indexes are rebuilt on first use, not stored."""
    import pickle

    main = MainColumn.build(types.INTEGER, list(range(2000)))
    delta = DeltaColumn(types.INTEGER)
    delta.extend(range(2000))
    cold = len(pickle.dumps(main)), len(pickle.dumps(delta))
    main.lookup()
    assert main.positions_of(5).tolist() == [5] and delta.positions_of(5).tolist() == [5]
    assert (len(pickle.dumps(main)), len(pickle.dumps(delta))) == cold
    for fragment in (main, delta):  # pickling left the live objects' state alone
        assert fragment._positions
    thawed_main, thawed_delta = pickle.loads(pickle.dumps(main)), pickle.loads(pickle.dumps(delta))
    assert thawed_main._lookup is None and thawed_main._positions is None
    assert thawed_main.positions_of(5).tolist() == [5]
    thawed_delta.extend([5])
    assert thawed_delta.positions_of(5).tolist() == [5, 2000]
