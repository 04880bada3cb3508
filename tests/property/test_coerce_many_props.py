"""Property tests: column-at-a-time coercion equals coercion per value.

``DataType.coerce_many`` returns a canonical column unchanged after one
type pass and coerces any other column value by value; either way the
result must be ``[coerce(v) for v in values]`` — the same values of the
same Python types — or the same exception type. ``ColumnSpec.coerce_many``
adds the NULL rules (a default, or NOT NULL) on top.
"""

from __future__ import annotations

import datetime as dt
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import types
from repro.core.schema import ColumnSpec, TableSchema

INT_EDGES = [-(2**63) - 1, -(2**63), -(2**31) - 1, -(2**31), -1, 0, 1, 2**31 - 1, 2**31, 2**63 - 1, 2**63]

#: each family lists value kinds; a drawn column mixes one or two of them
#: (plus NULLs), so columns that are — or are nearly — canonical are common
integers = (
    st.sampled_from(INT_EDGES),
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.integers(-1000, 1000).map(str),
    st.integers(-1000, 1000).map(lambda value: f"  {value} "),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=3),
)
doubles = (
    st.floats(),  # a NaN coerces to NULL
    st.integers(-(2**60), 2**60),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.just("nan"),
    st.text(max_size=3),
)
strings = (st.text(max_size=6), st.integers(-99, 99), st.floats(allow_nan=False), st.booleans())
dates = (
    st.dates(),
    st.dates().map(dt.date.isoformat),
    st.datetimes(),
    st.integers(-1000, 1000),
    st.text(max_size=4),
)

CASES = [
    (types.INTEGER, integers),
    (types.BIGINT, integers),
    (types.DOUBLE, doubles),
    (types.DECIMAL, doubles),
    (types.type_from_name("DECIMAL", precision=10, scale=2), doubles),
    (types.type_from_name("VARCHAR", length=3), strings),
    (types.VARCHAR, strings),
    (types.DATE, dates),
    (types.BOOLEAN, (st.booleans(), st.sampled_from([0, 1, 2, "t", "no"]))),
]


def per_value(coerce, values):
    """``("ok", [(value, type)...])`` or ``("error", exception type)``."""
    try:
        return "ok", [(value, type(value)) for value in map(coerce, values)]
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "error", type(exc)


def at_once(coerce_many, values):
    try:
        return "ok", [(value, type(value)) for value in coerce_many(list(values))]
    except Exception as exc:  # noqa: BLE001
        return "error", type(exc)


@settings(max_examples=400)
@given(st.data())
def test_coerce_many_equals_coerce_per_value(data):
    dtype, family = data.draw(st.sampled_from(CASES))
    kinds = data.draw(st.lists(st.sampled_from(family), min_size=1, max_size=2))
    column = data.draw(st.lists(st.one_of(*kinds, st.none()), max_size=12))
    assert at_once(dtype.coerce_many, column) == per_value(dtype.coerce, column)


@given(st.data())
def test_canonical_columns_come_back_unchanged(data):
    dtype, values = data.draw(
        st.sampled_from(
            [
                (types.INTEGER, st.integers(-(2**31), 2**31 - 1)),
                (types.BIGINT, st.integers(-(2**63), 2**63 - 1)),
                (types.DOUBLE, st.floats(allow_nan=False)),
                (types.type_from_name("VARCHAR", length=4), st.text(max_size=4)),
                (types.DATE, st.dates()),
            ]
        )
    )
    column = data.draw(st.lists(st.one_of(values, st.none()), max_size=12))
    assert dtype.coerce_many(column) is column


@given(
    st.lists(st.one_of(st.integers(-5, 5), st.none(), st.just(math.nan)), max_size=8),
    st.sampled_from(["default", "not_null", "nullable"]),
)
def test_column_spec_null_rules(column, rule):
    """NULL — and a NaN, which DOUBLE takes for NULL — meets the default
    or the NOT NULL rule alike."""
    spec = ColumnSpec(
        "c",
        types.DOUBLE,
        nullable=rule != "not_null",
        default=1.5 if rule == "default" else None,
    )
    assert at_once(spec.coerce_many, column) == per_value(spec.coerce, column)


@given(st.lists(st.tuples(*(st.one_of(*family, st.none()) for family in (integers, strings, dates))), max_size=8))
def test_coerce_columns_is_coerce_row_transposed(rows):
    schema = TableSchema(
        [
            ColumnSpec("a", types.INTEGER, nullable=False),
            ColumnSpec("b", types.type_from_name("VARCHAR", length=3)),
            ColumnSpec("c", types.DATE, default=dt.date(2000, 1, 1)),
        ]
    )
    def typed(rows):
        return [[(value, type(value)) for value in row] for row in rows]

    try:
        want = ("ok", typed(schema.coerce_row(row) for row in rows))
    except Exception as exc:  # noqa: BLE001
        want = ("error", type(exc))
    try:
        got = ("ok", typed(zip(*schema.coerce_columns(rows))))
    except Exception as exc:  # noqa: BLE001
        got = ("error", type(exc))
    # with several bad values, the first *column* holding one reports — the
    # error's type may then differ from the first bad *row*'s
    if want[0] == "ok" or got[0] == "ok":
        assert got == want
