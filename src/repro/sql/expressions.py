"""Vectorised expression evaluation over column batches.

A :class:`Batch` is the unit flowing between physical operators: a mapping
from qualified column names (``alias.column``) to columns of equal length.
A column is a NumPy array whose dtype the one values-to-column rule of
:mod:`repro.util.arrays` decides — SQL NULL is NaN in float arrays and
``None`` in object arrays, beside which integers stay exact Python ints —
or, for string/date columns that came out of a scan, a
:class:`Coded` column: integer codes plus a value table, the
dictionary-encoded form the column store keeps them in. ``take``,
``filter`` and ``concat`` move codes around without touching the values;
the executor groups, joins and sorts on them. Whoever needs the values
decodes: :meth:`Batch.column` (and therefore :func:`evaluate`, whose
contract stays *plain arrays in, plain array out*) and :meth:`Batch.rows`.

A predicate answers where it is TRUE: a comparison involving NULL yields
False, which filters a row out as UNKNOWN does. NOT is where the two
differ, so NOT evaluates :func:`~repro.sql.ast.negate`'s complement,
which a NULL fails too: ``NOT v < 3`` is ``v >= 3``.

Integer arithmetic is checked: ``+``, ``-``, ``*`` and unary minus over
int64 arrays raise :class:`~repro.errors.TypeMismatchError` ("BIGINT out of
range") where the exact result leaves int64, as coercing it into a BIGINT
column would — a result is refused, never wrapped.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.errors import ColumnNotFoundError, ExpressionError, TypeMismatchError
from repro.sql import ast
from repro.sql.context import ExecutionContext
from repro.util.arrays import FLOAT_EXACT, Coded, Column, typed_array


class Batch:
    """Named columns of equal length — the vectorised data unit."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Mapping[str, Column], length: int | None = None) -> None:
        self.columns: dict[str, Column] = dict(columns)
        if length is None:
            first = next(iter(self.columns.values()), None)
            length = len(first) if first is not None else 0
        self.length = length

    def __len__(self) -> int:
        return self.length

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def resolve(self, name: str, table: str | None = None) -> str:
        """Resolve a (possibly unqualified) column reference to a key."""
        name = name.lower()
        if table is not None:
            key = f"{table.lower()}.{name}"
            if key in self.columns:
                return key
            raise ColumnNotFoundError(table, name)
        if name in self.columns:
            return name
        matches = [key for key in self.columns if key.endswith(f".{name}")]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ColumnNotFoundError("<batch>", name)
        raise ExpressionError(f"ambiguous column reference {name!r}: {matches}")

    def column(self, name: str, table: str | None = None) -> np.ndarray:
        """The column as a plain array (a coded column is decoded)."""
        column = self.columns[self.resolve(name, table)]
        return column.decode() if isinstance(column, Coded) else column

    def take(self, positions: np.ndarray) -> "Batch":
        """Row subset by position."""
        return Batch(
            {key: array[positions] for key, array in self.columns.items()},
            length=len(positions),
        )

    def filter(self, mask: np.ndarray) -> "Batch":
        """Row subset by boolean mask."""
        return Batch(
            {key: array[mask] for key, array in self.columns.items()},
            length=int(mask.sum()),
        )

    def with_column(self, key: str, array: np.ndarray) -> "Batch":
        """New batch with one column added/replaced."""
        columns = dict(self.columns)
        columns[key.lower()] = array
        return Batch(columns, self.length)

    def rows(self) -> list[list[Any]]:
        """Materialise as Python rows (column order = insertion order)."""
        if not self.columns:
            return [[] for _ in range(self.length)]
        return list(map(list, zip(*map(python_values, self.columns.values()))))

    @staticmethod
    def concat(parts: "Iterable[Batch]") -> "Batch":
        """Concatenate batches with identical column sets."""
        parts = [part for part in parts if part is not None]
        if not parts:
            return Batch({}, 0)
        if len(parts) == 1:
            return parts[0]
        columns = {
            key: concat_columns([part.columns[key] for part in parts])
            for key in parts[0].names
        }
        return Batch(columns, sum(len(part) for part in parts))


def concat_columns(parts: list[Column]) -> Column:
    """One column out of consecutive pieces (batches, or the main and delta
    fragments of a partition). Coded pieces stay coded; plain arrays of
    different dtypes widen by the values-to-column rule: integers with
    floats to ``float64`` where it holds every integer exactly, any other
    mix to ``object``."""
    if all(isinstance(part, Coded) for part in parts):
        return Coded.concat(parts)
    arrays = [part.decode() if isinstance(part, Coded) else part for part in parts]
    kinds = {array.dtype.kind for array in arrays}
    if len({array.dtype for array in arrays}) > 1 and not kinds <= set("iu"):
        ints = [array for array in arrays if array.dtype.kind in "iu" and len(array)]
        exact = all(-FLOAT_EXACT <= array.min() and array.max() <= FLOAT_EXACT for array in ints)
        target = np.float64 if kinds <= set("iuf") and exact else object
        arrays = [array.astype(target, copy=False) for array in arrays]
    return np.concatenate(arrays)


def _to_python(value: Any) -> Any:
    """Unbox NumPy scalars; map NaN to None for output rows."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value != value:
        return None
    return value


_unbox = np.frompyfunc(_to_python, 1, 1)


def python_values(column: Column) -> list[Any]:
    """One column as Python values for output rows (NULL is ``None``)."""
    if column.dtype == object:
        with np.errstate(invalid="ignore"):  # NaN self-comparison is the point
            if isinstance(column, Coded):  # unbox per table entry, not per row
                return _unbox(column.values)[column.codes].tolist()
            return _unbox(column).tolist()
    if column.dtype.kind == "f" and np.isnan(column).any():
        boxed = column.astype(object)
        boxed[np.isnan(column)] = None
        return boxed.tolist()
    return column.tolist()


def is_null_mask(array: np.ndarray) -> np.ndarray:
    """Boolean mask of SQL NULLs for either representation."""
    if array.dtype == object:
        return np.asarray(array == None, dtype=bool)  # noqa: E711 - element-wise
    if array.dtype.kind == "f":
        return np.isnan(array)
    return np.zeros(len(array), dtype=bool)


def _broadcast(value: Any, length: int) -> np.ndarray:
    """Turn a literal into an array of the batch length."""
    if isinstance(value, bool):
        return np.full(length, value, dtype=bool)
    if isinstance(value, int):
        return np.full(length, value, dtype=np.int64)
    if isinstance(value, float):
        return np.full(length, value, dtype=np.float64)
    out = np.empty(length, dtype=object)
    out[:] = [value] * length if length else []
    return out


_ARITH: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "%": np.mod,
}

_COMPARE = {"=", "<>", "<", "<=", ">", ">="}


#: applied to two object arrays these compare element-wise, to two values once
_OBJECT_COMPARE: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _missing(array: np.ndarray) -> np.ndarray:
    """NULLs of either representation, plus NaN objects inside object arrays."""
    if array.dtype == object:
        return is_null_mask(array) | np.asarray(array != array, dtype=bool)
    return is_null_mask(array)


def _compare_object(left: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    """Python-semantics comparison; NULL never matches, and neither does a
    pair Python cannot order (``'a' < 1`` is false, not an error)."""
    out = np.zeros(len(left), dtype=bool)
    valid = ~(_missing(left) | _missing(right))
    left, right = left[valid].astype(object), right[valid].astype(object)
    holds = _OBJECT_COMPARE[op]
    try:
        out[valid] = holds(left, right)
    except TypeError:
        # mixed types (DOC_EXTRACT over heterogeneous JSON): the pairs that
        # do compare keep their answer, only the offending ones are false

        def or_false(a: Any, b: Any) -> bool:
            try:
                return bool(holds(a, b))
            except TypeError:
                return False

        out[valid] = np.frompyfunc(or_false, 2, 1)(left, right)
    return out


def compare(left: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    """NULL-safe comparison of two arrays."""
    if left.dtype != object and right.dtype != object:
        with np.errstate(invalid="ignore"):
            if op == "=":
                result = left == right
            elif op == "<>":
                result = left != right
                nulls = is_null_mask(left) | is_null_mask(right)
                result = result & ~nulls
                return result
            elif op == "<":
                result = left < right
            elif op == "<=":
                result = left <= right
            elif op == ">":
                result = left > right
            else:
                result = left >= right
        return np.asarray(result, dtype=bool)
    return _compare_object(left, right, op)


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    # re.escape escapes % and _ as themselves (no-op) so the replacements
    # above operate on the escaped text directly.
    return re.compile(f"^{regex}$", re.DOTALL)


def evaluate(expr: ast.Expr, batch: Batch, context: ExecutionContext) -> np.ndarray:
    """Evaluate ``expr`` over ``batch`` to an array of ``len(batch)``."""
    if isinstance(expr, ast.Literal):
        return _broadcast(expr.value, len(batch))
    if isinstance(expr, ast.ColumnRef):
        return batch.column(expr.name, expr.table)
    if isinstance(expr, ast.UnaryOp):
        complement = ast.negate(expr.operand) if expr.op == "NOT" else None
        if complement is not None:
            return evaluate(complement, batch, context)
        operand = evaluate(expr.operand, batch, context)
        if expr.op == "NOT":  # of a value: NOT NULL is NULL, not true
            return ~np.asarray(operand, dtype=bool) & ~_missing(operand)
        if operand.dtype == object:
            return np.array(
                [None if v is None else -v for v in operand], dtype=object
            )
        if operand.dtype.kind == "i" and (operand == _INT64_MIN).any():
            raise TypeMismatchError(f"BIGINT out of range: {-_INT64_MIN}")
        return -operand
    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, batch, context)
    if isinstance(expr, ast.IsNull):
        mask = is_null_mask(evaluate(expr.operand, batch, context))
        return ~mask if expr.negated else mask
    if isinstance(expr, ast.InList):
        operand = evaluate(expr.operand, batch, context)
        result = np.zeros(len(batch), dtype=bool)
        unknown = is_null_mask(operand)  # where no match is UNKNOWN, not FALSE
        for value in (evaluate(item, batch, context) for item in expr.items):
            result |= compare(operand, value, "=")
            unknown |= is_null_mask(value)
        return ~result & ~unknown if expr.negated else result
    if isinstance(expr, ast.Between):
        operand = evaluate(expr.operand, batch, context)
        low = evaluate(expr.low, batch, context)
        high = evaluate(expr.high, batch, context)
        inside = compare(operand, low, ">=") & compare(operand, high, "<=")
        if expr.negated:
            return ~inside & ~is_null_mask(operand)
        return inside
    if isinstance(expr, ast.CaseWhen):
        return _evaluate_case(expr, batch, context)
    if isinstance(expr, ast.FunctionCall):
        if context.functions is None:
            raise ExpressionError(f"no function registry for {expr.name}")
        args = [evaluate(arg, batch, context) for arg in expr.args]
        return context.functions.call(expr.name, args, len(batch), context)
    if isinstance(expr, ast.Star):
        raise ExpressionError("'*' is only valid in a select list or COUNT(*)")
    raise ExpressionError(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_binary(expr: ast.BinaryOp, batch: Batch, context: ExecutionContext) -> np.ndarray:
    op = expr.op
    if op == "AND":
        left = np.asarray(evaluate(expr.left, batch, context), dtype=bool)
        if not left.any():
            return left
        right = np.asarray(evaluate(expr.right, batch, context), dtype=bool)
        return left & right
    if op == "OR":
        left = np.asarray(evaluate(expr.left, batch, context), dtype=bool)
        right = np.asarray(evaluate(expr.right, batch, context), dtype=bool)
        return left | right

    left = evaluate(expr.left, batch, context)
    right = evaluate(expr.right, batch, context)
    if op in _COMPARE:
        return compare(left, right, op)
    if op in ("LIKE", "NOT LIKE"):
        pattern_values = right
        out = np.zeros(len(batch), dtype=bool)
        compiled: dict[str, re.Pattern[str]] = {}
        for index in range(len(batch)):
            value = _to_python(left[index])
            pattern = _to_python(pattern_values[index])
            if value is None or pattern is None:
                continue
            regex = compiled.get(pattern)
            if regex is None:
                regex = _like_to_regex(pattern)
                compiled[pattern] = regex
            out[index] = (regex.match(str(value)) is None) == (op == "NOT LIKE")
        return out
    if op == "||":
        out = np.empty(len(batch), dtype=object)
        for index in range(len(batch)):
            a = _to_python(left[index])
            b = _to_python(right[index])
            out[index] = None if a is None or b is None else f"{a}{b}"
        return out
    if op == "/":
        left_f = as_float(left)
        right_f = as_float(right)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = left_f / right_f
        result[np.isinf(result)] = np.nan
        return result
    if op in _ARITH:
        if left.dtype == object or right.dtype == object:
            return _object_arith(left, right, op)
        with np.errstate(invalid="ignore"):
            result = _ARITH[op](left, right)
        if op != "%" and left.dtype.kind == "i" and right.dtype.kind == "i":
            _refuse_overflow(op, left, right, result)
        return result
    raise ExpressionError(f"unknown binary operator {op!r}")


_INT64_MIN = np.iinfo(np.int64).min


def _refuse_overflow(op: str, left: np.ndarray, right: np.ndarray, result: np.ndarray) -> None:
    """Raise where int64 ``left <op> right`` wrapped. A sum or difference
    wrapped where its sign disagrees with both operands' (two's
    complement); a product is recomputed exactly where its float estimate
    comes near 2**63."""
    if op == "+":
        suspects = np.flatnonzero(((left ^ result) & (right ^ result)) < 0)
    elif op == "-":
        suspects = np.flatnonzero(((left ^ right) & (left ^ result)) < 0)
    else:
        suspects = np.flatnonzero(np.abs(left.astype(np.float64) * right.astype(np.float64)) >= 2.0**62)
    for index in suspects.tolist():
        exact = _PYTHON_ARITH[op](int(left[index]), int(right[index]))
        if not -(2**63) <= exact < 2**63:
            raise TypeMismatchError(f"BIGINT out of range: {exact}")


#: the arithmetic operators on Python values
_PYTHON_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "%": operator.mod}


def _object_arith(left: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    """Arithmetic over object arrays (dates + intervals, None-safe)."""
    func = _PYTHON_ARITH[op]
    out = np.empty(len(left), dtype=object)
    for index in range(len(left)):
        a = _to_python(left[index])
        b = _to_python(right[index])
        out[index] = None if a is None or b is None else func(a, b)
    return out


def as_float(array: np.ndarray) -> np.ndarray:
    if array.dtype == object:
        return np.array(
            [np.nan if v is None else float(v) for v in array], dtype=np.float64
        )
    return array.astype(np.float64, copy=False)


def _evaluate_case(expr: ast.CaseWhen, batch: Batch, context: ExecutionContext) -> np.ndarray:
    length = len(batch)
    result = (
        evaluate(expr.otherwise, batch, context)
        if expr.otherwise is not None
        else _broadcast(None, length)
    )
    result = np.asarray(result, dtype=object).copy()
    decided = np.zeros(length, dtype=bool)
    for condition, branch in expr.branches:
        mask = np.asarray(evaluate(condition, batch, context), dtype=bool) & ~decided
        if mask.any():
            values = evaluate(branch, batch, context)
            result[mask] = values[mask]
            decided |= mask
    typed = typed_array(result)  # the values-to-column rule, as for any column
    return result if typed is None else typed
