"""Direct unit tests for Batch and vectorised expression evaluation."""

import numpy as np
import pytest

from repro.errors import ColumnNotFoundError, ExpressionError
from repro.sql.context import ExecutionContext
from repro.sql.expressions import Batch, Coded, compare, evaluate, is_null_mask
from repro.sql.functions import FunctionRegistry
from repro.sql.parser import parse_expression


@pytest.fixture
def batch():
    return Batch(
        {
            "t.a": np.array([1.0, 2.0, np.nan, 4.0]),
            "t.b": np.array([10, 20, 30, 40], dtype=np.int64),
            "t.name": np.array(["x", None, "y", "x"], dtype=object),
        }
    )


@pytest.fixture
def context():
    return ExecutionContext(functions=FunctionRegistry())


def eval_text(text, batch, context):
    return evaluate(parse_expression(text), batch, context)


def test_resolution_qualified_and_suffix(batch):
    assert batch.resolve("a", "t") == "t.a"
    assert batch.resolve("a") == "t.a"
    with pytest.raises(ColumnNotFoundError):
        batch.resolve("ghost")
    other = batch.with_column("s.a", np.zeros(4))
    with pytest.raises(ExpressionError):
        other.resolve("a")


def test_filter_take_concat(batch):
    filtered = batch.filter(np.array([True, False, True, False]))
    assert len(filtered) == 2
    taken = batch.take(np.array([3, 0]))
    assert list(taken.column("b")) == [40, 10]
    merged = Batch.concat([filtered, taken])
    assert len(merged) == 4


def test_concat_promotes_dtypes():
    a = Batch({"x": np.array([1, 2], dtype=np.int64)})
    b = Batch({"x": np.array([1.5])})
    merged = Batch.concat([a, b])
    assert merged.column("x").dtype == np.float64


def test_rows_unbox_nan_to_none(batch):
    rows = batch.rows()
    assert rows[2][0] is None
    assert rows[0] == [1.0, 10, "x"]


def test_is_null_mask_all_representations():
    assert list(is_null_mask(np.array([1.0, np.nan]))) == [False, True]
    assert list(is_null_mask(np.array(["a", None], dtype=object))) == [False, True]
    assert list(is_null_mask(np.array([1, 2], dtype=np.int64))) == [False, False]


def coded(values):
    table = np.array(sorted({v for v in values if v is not None}) + [None], dtype=object)
    lookup = {value: code for code, value in enumerate(table[:-1])}
    return Coded(np.array([lookup.get(v, -1) for v in values], dtype=np.int64), table)


def test_coded_column_moves_as_codes_and_decodes_on_demand(context):
    batch = Batch({"t.s": coded(["b", None, "a", "b"]), "t.n": np.arange(4)})
    kept = batch.filter(np.array([True, True, False, True])).take(np.array([2, 0, 1]))
    assert isinstance(kept.columns["t.s"], Coded)  # filter/take never touch the values
    assert kept.columns["t.s"].values is batch.columns["t.s"].values
    assert list(kept.column("s")) == ["b", "b", None]  # column() hands out a plain array
    assert list(eval_text("s = 'b'", kept, context)) == [True, True, False]
    assert kept.rows() == [["b", 3], ["b", 0], [None, 1]]


def test_coded_concat_appends_value_tables():
    left, right = coded(["x", None]), Coded.from_values(np.array(["y", None, "x"], dtype=object))
    merged = Batch.concat([Batch({"c": left}), Batch({"c": right})])
    assert isinstance(merged.columns["c"], Coded)
    assert merged.rows() == [["x"], [None], ["y"], [None], ["x"]]
    mixed = Batch.concat([Batch({"c": left}), Batch({"c": np.array([1.5, np.nan])})])
    assert mixed.rows() == [["x"], [None], [1.5], [None]]


def test_rows_unbox_numpy_scalars_held_in_object_columns():
    column = np.array([np.int64(3), np.float64("nan"), "s"], dtype=object)
    rows = Batch({"c": column, "b": np.array([True, False, True])}).rows()
    assert rows == [[3, True], [None, False], ["s", True]]
    assert type(rows[0][0]) is int and type(rows[0][1]) is bool
    assert Batch({}, 2).rows() == [[], []]


def test_object_comparison_treats_nan_as_null_and_incomparable_as_false():
    left = np.array([1.0, float("nan"), None, 3], dtype=object)
    right = np.array([1.0, 2.0, 3.0, np.nan])
    assert list(compare(left, right, "=")) == [True, False, False, False]
    assert list(compare(left, right, "<>")) == [False, False, False, False]
    words = np.array(["a", "b"], dtype=object)
    assert list(compare(words, np.array([1, 2]), "<")) == [False, False]  # 'a' < 1: no error
    assert list(compare(words, np.array([1, 2]), "<>")) == [True, True]


def test_object_comparison_keeps_the_comparable_rows_of_a_mixed_column():
    """One pair Python cannot order is false; its neighbours keep their answer."""
    mixed = np.array(["a", 5, None, 2, 7.5], dtype=object)
    three = np.full(5, 3, dtype=np.int64)
    assert list(compare(mixed, three, "<")) == [False, False, False, True, False]
    assert list(compare(mixed, three, ">")) == [False, True, False, False, True]
    assert list(compare(three, mixed, "<=")) == [False, True, False, False, True]
    assert list(compare(mixed, three, "<>")) == [True, True, False, True, True]


def test_arithmetic_with_nan_propagates(batch, context):
    result = eval_text("a + b", batch, context)
    assert result[0] == 11.0
    assert np.isnan(result[2])


def test_division_by_zero_yields_null(batch, context):
    result = eval_text("b / (b - 10)", batch, context)
    assert np.isnan(result[0])
    assert result[1] == 2.0


def test_comparison_nan_never_matches(batch, context):
    mask = eval_text("a > 0", batch, context)
    assert list(mask) == [True, True, False, True]
    mask = eval_text("a <> 1", batch, context)
    assert list(mask) == [False, True, False, True]


def test_object_comparisons(batch, context):
    mask = eval_text("name = 'x'", batch, context)
    assert list(mask) == [True, False, False, True]
    mask = eval_text("name >= 'x'", batch, context)
    assert list(mask) == [True, False, True, True]


def test_compare_mixed_numeric_object():
    left = np.array([1, 2], dtype=object)
    right = np.array([1.0, 3.0])
    assert list(compare(left, right, "=")) == [True, False]


def test_and_short_circuits_right_side(batch, context):
    # the right side would raise if evaluated on all rows (unknown column);
    # AND must skip it when the left side is all-false
    expr = parse_expression("a > 100 AND ghost = 1")
    result = evaluate(expr, batch, context)
    assert not result.any()


def test_in_list_and_negation(batch, context):
    assert list(eval_text("b IN (10, 40)", batch, context)) == [True, False, False, True]
    assert list(eval_text("name NOT IN ('x')", batch, context)) == [False, False, True, False]


def test_between_negated_excludes_nulls(batch, context):
    result = eval_text("a NOT BETWEEN 1 AND 2", batch, context)
    assert list(result) == [False, False, False, True]  # NaN row excluded


def test_like_patterns(batch, context):
    assert list(eval_text("name LIKE 'x'", batch, context)) == [True, False, False, True]
    assert list(eval_text("name LIKE '_'", batch, context)) == [True, False, True, True]


def test_concat_operator(batch, context):
    result = eval_text("name || '!'", batch, context)
    assert list(result) == ["x!", None, "y!", "x!"]


def test_case_narrowing_numeric(batch, context):
    result = eval_text("CASE WHEN b > 20 THEN 1 ELSE 0 END", batch, context)
    assert result.dtype == np.int64
    assert list(result) == [0, 0, 1, 1]


def test_unary_minus_object_and_numeric(batch, context):
    assert list(eval_text("-b", batch, context)) == [-10, -20, -30, -40]


def test_star_rejected(batch, context):
    from repro.sql import ast

    with pytest.raises(ExpressionError):
        evaluate(ast.Star(), batch, context)


def test_function_requires_registry(batch):
    bare = ExecutionContext(functions=None)
    with pytest.raises(ExpressionError):
        evaluate(parse_expression("UPPER(name)"), batch, bare)
