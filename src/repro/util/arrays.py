"""Small array utilities shared across the storage layer and the operator
kernels."""

from __future__ import annotations

import numpy as np


class GrowableInt64:
    """An append-friendly int64 array with amortised O(1) growth.

    The MVCC visibility vectors (``created`` / ``deleted`` commit ids) grow
    by one on every insert; a plain ``np.append`` would be O(n) per row.
    This wrapper doubles capacity and exposes a zero-copy ``view()`` of the
    live prefix for vectorised visibility checks.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial: np.ndarray | None = None, capacity: int = 16) -> None:
        if initial is not None:
            initial = np.asarray(initial, dtype=np.int64)
            capacity = max(capacity, len(initial), 1)
            self._data = np.empty(capacity, dtype=np.int64)
            self._data[: len(initial)] = initial
            self._size = len(initial)
        else:
            self._data = np.empty(max(capacity, 1), dtype=np.int64)
            self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value: int) -> int:
        """Append ``value``; returns the position it was stored at."""
        if self._size == len(self._data):
            grown = np.empty(len(self._data) * 2, dtype=np.int64)
            grown[: self._size] = self._data
            self._data = grown
        self._data[self._size] = value
        self._size += 1
        return self._size - 1

    def extend(self, values: np.ndarray) -> None:
        """Append many values at once."""
        values = np.asarray(values, dtype=np.int64)
        needed = self._size + len(values)
        if needed > len(self._data):
            capacity = len(self._data)
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = values
        self._size = needed

    def view(self) -> np.ndarray:
        """Zero-copy view of the live prefix. Do not resize while held."""
        return self._data[: self._size]

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(index)
        return int(self._data[index])

    def __setitem__(self, index: int | slice, value: int) -> None:
        if isinstance(index, slice):
            self.view()[index] = value
            return
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(index)
        self._data[index] = value


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
