"""Property tests pinning the SOE's routing, result-order and sizing rules.

Routing: a row's partition is the CRC-32 of its key values' reprs joined
by ``\\x1f``, modulo the partition count, where a bool or an integral
float is first taken as its int, so equal keys route alike
(:func:`route_row`); :func:`route_column` gives every row of a key column
the same ordinal as :func:`route_row` does row by row. Order: :meth:`GroupStates.rows` sorts
the merged groups by the tuple of their key values' reprs, stably.
Sizing: a column in array form ships :func:`approx_values_bytes` of its
values.
"""

from __future__ import annotations

import datetime
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soe.cluster import approx_column_bytes, approx_values_bytes
from repro.soe.partitions import route_column, route_row
from repro.soe.tasks import AggregateSpec, GroupStates
from repro.sql.expressions import Coded, python_values

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf")]
)
TEXT = st.text(alphabet=st.sampled_from("ab'\"\\ \x1füé日\U0001f600"), max_size=6)
DATES = st.dates(min_value=datetime.date(1900, 1, 1), max_value=datetime.date(2100, 1, 1))
VALUES = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    FLOATS,
    TEXT,
    st.none(),
    st.booleans(),
    DATES,
)
PARTITIONS = st.integers(min_value=1, max_value=16)


def canonical(value):
    if isinstance(value, bool) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    return value


def reference_route(key: list, partition_count: int) -> int:
    return zlib.crc32("\x1f".join(repr(canonical(value)) for value in key).encode("utf-8")) % partition_count


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(VALUES, min_size=2, max_size=3),
    positions=st.sampled_from([(0,), (1,), (0, 1), (1, 0)]),
    partition_count=PARTITIONS,
)
def test_route_row_is_crc32_of_the_joined_reprs(row, positions, partition_count):
    key = [row[position] for position in positions]
    assert route_row(row, positions, partition_count) == reference_route(key, partition_count)


def coded(draw_values: list, codes: list[int]) -> Coded:
    table = np.empty(len(draw_values) + 1, dtype=object)
    table[:-1] = draw_values
    return Coded(np.asarray(codes, dtype=np.int64), table)


@st.composite
def key_columns(draw):
    kind = draw(st.sampled_from(["int64", "float64", "object", "coded"]))
    if kind == "int64":
        return np.asarray(draw(st.lists(INT64, max_size=40)), dtype=np.int64)
    if kind == "float64":
        return np.asarray(draw(st.lists(FLOATS, max_size=40)), dtype=np.float64)
    if kind == "object":
        values = draw(st.lists(VALUES, max_size=40))
        column = np.empty(len(values), dtype=object)
        column[:] = values
        return column
    table = draw(st.lists(VALUES.filter(lambda v: v is not None), min_size=1, max_size=8))
    table += draw(st.lists(st.sampled_from(table), max_size=2))  # a table may list a value twice
    codes = draw(st.lists(st.integers(min_value=-1, max_value=len(table) - 1), max_size=40))
    return coded(table, codes)


@settings(max_examples=300, deadline=None)
@given(keys=key_columns(), partition_count=PARTITIONS)
def test_route_column_equals_route_row_row_by_row(keys, partition_count):
    routed = route_column(keys, partition_count)
    assert routed.dtype == np.int64
    assert routed.tolist() == [
        route_row((value,), (0,), partition_count) for value in python_values(keys)
    ]


@settings(max_examples=200, deadline=None)
@given(column=key_columns())
def test_a_column_ships_the_bytes_of_its_values(column):
    values = column.decode() if isinstance(column, Coded) else column
    assert approx_column_bytes(column) == approx_values_bytes(values.tolist())


class SameRepr:
    """Unequal objects that print alike: groups whose keys tie on repr."""

    def __repr__(self) -> str:
        return "SameRepr"


GROUP_KEYS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([None, "a", "B", "ä", "a'", 2.5, -0.5, datetime.date(2020, 1, 2)]),
    st.builds(SameRepr),
)


def repr_sorted_rows(states: GroupStates, aggregates: list[AggregateSpec]) -> list[list]:
    """The merged groups as rows, in ``sorted(…, key=repr-tuple)`` order."""
    columns = list(map(python_values, states.keys))
    for aggregate, (values, counts) in zip(aggregates, states.states):
        if aggregate.op != "count" and not counts.all():
            values = values.astype(object)
            values[counts == 0] = None
        columns.append(python_values(values))
    rows = list(map(list, zip(*columns))) if columns else [[] for _ in range(states.groups)]
    return sorted(rows, key=lambda row: tuple(map(repr, row[: len(states.keys)])))


def as_column(values: list) -> np.ndarray:
    if values and all(type(value) is int for value in values):
        return np.asarray(values, dtype=np.int64)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(GROUP_KEYS, GROUP_KEYS, st.integers(-5, 5) | st.none()), max_size=40),
    key_count=st.sampled_from([1, 2]),
    split=st.integers(min_value=0, max_value=40),
)
def test_group_rows_come_in_repr_tuple_order(rows, key_count, split):
    aggregates = [AggregateSpec("sum", "v"), AggregateSpec("count")]

    def partial(part: list[tuple]) -> GroupStates:
        columns = [as_column([row[k] for row in part]) for k in range(3)]
        return GroupStates.reduce(
            columns[:key_count], len(part), [(columns[2], None), (None, None)], aggregates
        )

    # two nodes' partial states merged at the coordinator, as a plan does
    merged = GroupStates.merge([partial(rows[:split]), partial(rows[split:])], aggregates, key_count)
    assert merged.rows(aggregates) == repr_sorted_rows(merged, aggregates)
