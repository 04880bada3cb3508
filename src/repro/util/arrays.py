"""Small array utilities shared across the storage layer and the operator
kernels — among them the one rule by which the column store, the SQL
layer and the SOE turn values into a column (:func:`typed_array`)."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

_NONE = type(None)

#: ``float64`` holds every integer of at most this magnitude exactly
FLOAT_EXACT = 2**53


def typed_array(values: Sequence[Any]) -> np.ndarray | None:
    """Python values as a column: integers that fit as ``int64``, booleans
    as ``bool``, floats — with or without NULLs and integers that ``float64``
    holds exactly — as ``float64`` with NaN for NULL; None where anything
    else makes them ``object``, so that an integer beside a NULL or beyond
    2**53 beside a float, or a boolean beside a NULL, stays exact."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:  # an integer beyond int64
            return None
    if kinds == {bool}:
        return np.array(values, dtype=bool)
    if float in kinds and kinds <= {float, int, _NONE}:
        if int in kinds and any(abs(value) > FLOAT_EXACT for value in values if type(value) is int):
            return None
        return np.array(values, dtype=np.float64)  # None converts to NaN
    return None


def narrow_to_array(values: Sequence[Any]) -> np.ndarray:
    """:func:`typed_array`, or else an ``object`` array of the values."""
    typed = typed_array(values)
    return np.fromiter(values, dtype=object, count=len(values)) if typed is None else typed


def with_nulls(column: Column) -> Column:
    """A typed column in the dtype the rule gives it once it holds a NULL:
    integers and booleans as exact ``object`` values, floats as they are."""
    return column.astype(object) if column.dtype.kind in "biu" else column


class GrowableArray:
    """An append-friendly typed array with amortised O(1) growth.

    The MVCC visibility vectors and a delta fragment's values grow with
    every insert; a plain ``np.append`` would be O(n) per row. This wrapper
    doubles capacity and exposes a zero-copy ``view()`` of the live prefix.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial: np.ndarray | None = None, capacity: int = 16, dtype: Any = np.int64) -> None:
        if initial is not None:
            initial = np.asarray(initial, dtype=dtype)
            capacity = max(capacity, len(initial), 1)
            self._data = np.empty(capacity, dtype=dtype)
            self._data[: len(initial)] = initial
            self._size = len(initial)
        else:
            self._data = np.empty(max(capacity, 1), dtype=dtype)
            self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value: Any) -> int:
        """Append ``value``; returns the position it was stored at."""
        return self.fill(value, 1)

    def extend(self, values: np.ndarray) -> None:
        """Append many values at once."""
        values = np.asarray(values, dtype=self._data.dtype)
        self.fill(values, len(values))

    def fill(self, value: Any, count: int) -> int:
        """Append ``count`` copies of ``value`` (or the ``count`` values of
        an array); returns the first one's position."""
        start, self._size = self._size, self._size + count
        if self._size > len(self._data):
            capacity = len(self._data)
            while capacity < self._size:
                capacity *= 2
            grown = np.empty(capacity, dtype=self._data.dtype)
            grown[:start] = self._data[:start]
            self._data = grown
        if count == 1 and type(value) is not np.ndarray:
            # one row: NumPy sets an item several times faster than a slice
            self._data[start] = value
        else:
            self._data[start : self._size] = value
        return start

    def view(self) -> np.ndarray:
        """Zero-copy view of the live prefix. Do not resize while held."""
        return self._data[: self._size]

    def __getitem__(self, index: int) -> Any:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(index)
        return self._data[index].item()

    def __setitem__(self, index: int | slice | np.ndarray, value: Any) -> None:
        """Set one position, a slice or an index array of positions."""
        self.view()[index] = value


class Coded:
    """An object-dtype column held as integer codes into a value table.

    ``values[codes]`` is the column. ``values`` is an object array whose
    last slot is ``None``, so the NULL code ``-1`` decodes to NULL without
    a branch. The table may list a value more than once (several
    dictionaries concatenated): equal codes mean equal values, not the
    converse.
    """

    __slots__ = ("codes", "values")

    dtype = np.dtype(object)

    def __init__(self, codes: np.ndarray, values: np.ndarray) -> None:
        self.codes = codes
        self.values = values

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: np.ndarray) -> "Coded":
        return Coded(self.codes[index], self.values)

    def decode(self) -> np.ndarray:
        return self.values[self.codes]

    @staticmethod
    def from_values(array: np.ndarray) -> "Coded":
        """Code an object array row by row (each non-NULL row its own code)."""
        codes = np.arange(len(array), dtype=np.int64)
        codes[np.asarray(array == None, dtype=bool)] = -1  # noqa: E711 - element-wise
        return Coded(codes, np.append(array, None))

    @staticmethod
    def concat(parts: "list[Coded]") -> "Coded":
        """Concatenate, appending the value tables and shifting the codes."""
        codes, tables, offset = [], [], 0
        for part in parts:
            codes.append(np.where(part.codes < 0, -1, part.codes + offset))
            tables.append(part.values[:-1])
            offset += len(part.values) - 1
        tables.append(np.array([None], dtype=object))
        return Coded(np.concatenate(codes), np.concatenate(tables))


Column = np.ndarray | Coded


#: the widest span :func:`stable_order` sorts: two 16-bit radix passes
_RADIX_SPAN = 1 << 32


def dense_span(keys: np.ndarray, budget: int) -> tuple[int, int]:
    """``(low, span)`` of integer ``keys``: their minimum and ``max - min +
    1``. ``span`` is 0 — take the sort path — for non-integer or no keys,
    and when the span exceeds ``budget`` (the caller's input length) or
    what two radix passes sort."""
    if keys.dtype.kind not in "iu" or not len(keys):
        return 0, 0
    low = int(keys.min())
    span = int(keys.max()) - low + 1  # Python ints: no int64 wrap
    return low, (span if span <= min(budget, _RADIX_SPAN) else 0)


def stable_order(offsets: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(offsets, kind="stable")`` for offsets in ``[0, span)``,
    ``span`` at most 2**32: one stable ``uint16`` pass (a radix sort in
    NumPy), or a low then a high 16-bit pass."""
    if span <= 1 << 16:
        return np.argsort(offsets.astype(np.uint16), kind="stable")
    order = np.argsort((offsets & 0xFFFF).astype(np.uint16), kind="stable")
    high = (offsets >> 16).astype(np.uint16)
    return order[np.argsort(high[order], kind="stable")]


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``; integer keys over a span no wider
    than their count take :func:`stable_order`'s radix passes instead."""
    low, span = dense_span(keys, len(keys))
    if not span:
        return np.argsort(keys, kind="stable")
    return stable_order(keys - low, span)
