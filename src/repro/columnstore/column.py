"""Column fragments: the read-optimised main and the write-optimised delta.

A column of a table partition consists of

* a :class:`MainColumn` — immutable, dictionary encoded, compressed; rebuilt
  only by the delta merge, and
* a :class:`DeltaColumn` — an append-only buffer of raw values recording all
  changes since the last merge (paper, Section III: "a buffer structure
  called delta store which records all changes").

Scans read main and delta side by side; positions ``[0, n_main)`` address
main rows, ``[n_main, n_main + n_delta)`` address delta rows.

Both fragments answer ``positions_of`` — *which rows hold this value* —
from a position index they build themselves on first use: the primary-key
access path of :class:`~repro.columnstore.table.TablePartition`. Neither
index has an invalidation hook because neither needs one: a main fragment
never changes, a delta only grows, and the merge (like tiering) replaces
both objects wholesale. Derived state is not pickled.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.columnstore.compression import (
    NULL_VID,
    BitPackedVector,
    EncodedVector,
    choose_encoding,
)
from repro.columnstore.dictionary import AppendDictionary, SortedDictionary
from repro.core.types import DataType, TypeCode
from repro.util.arrays import stable_argsort

Dictionary = SortedDictionary | AppendDictionary

_NO_POSITIONS = np.empty(0, dtype=np.int64)

_NUMERIC_INT = (TypeCode.INTEGER, TypeCode.BIGINT)
_NUMERIC_FLOAT = (TypeCode.DOUBLE, TypeCode.DECIMAL)

#: the column types whose sorted dictionary is a NumPy array
_ARRAY_DICTIONARY = {
    TypeCode.INTEGER: np.dtype(np.int64),
    TypeCode.BIGINT: np.dtype(np.int64),
    TypeCode.DOUBLE: np.dtype(np.float64),
}


def _sorted_dictionary_for(dtype: DataType) -> SortedDictionary:
    return SortedDictionary(dtype=_ARRAY_DICTIONARY.get(dtype.code))


class MainColumn:
    """Immutable dictionary-encoded, compressed column fragment."""

    def __init__(
        self,
        dtype: DataType,
        dictionary: Dictionary | None = None,
        encoded: EncodedVector | None = None,
    ) -> None:
        self.dtype = dtype
        self.dictionary: Dictionary = (
            dictionary if dictionary is not None else _sorted_dictionary_for(dtype)
        )
        self.encoded: EncodedVector = (
            encoded if encoded is not None else BitPackedVector(np.empty(0, dtype=np.int64))
        )
        self._lookup: np.ndarray | None = None
        #: (row positions ordered by value id, their value ids) — see positions_of
        self._positions: tuple[np.ndarray, np.ndarray] | None = None

    def __getstate__(self) -> dict[str, Any]:
        """Derived state is rebuilt on first use, not stored: physical
        savepoints and tiering payloads hold the fragment, not its indexes."""
        return {**self.__dict__, "_lookup": None, "_positions": None}

    @classmethod
    def build(
        cls,
        dtype: DataType,
        values: Sequence[Any],
        sorted_dictionary: bool = True,
    ) -> "MainColumn":
        """Build a fragment from raw values (a flexible table's new column)."""
        dictionary: Dictionary = (
            _sorted_dictionary_for(dtype) if sorted_dictionary else AppendDictionary()
        )
        dictionary.encode_many(values)
        return cls(dtype, dictionary, choose_encoding(dictionary.vids_of(values)))

    def __len__(self) -> int:
        return len(self.encoded)

    def vids(self) -> np.ndarray:
        """The full decoded value-id vector."""
        return self.encoded.decode()

    def lookup(self) -> np.ndarray:
        """The decode table: ``lookup()[vids]`` is the analysis array.

        INTEGER/BIGINT decode to ``int64``, DOUBLE/DECIMAL — and integers
        once the fragment holds a NULL — to ``float64`` with NaN, BOOLEAN
        without NULLs to ``bool``; everything else to an object array of
        exact Python values with ``None`` for NULL. Tables that can meet a
        NULL carry it in a trailing slot, which :data:`NULL_VID` (-1)
        indexes. Built once per fragment: a main fragment is immutable
        and the merge replaces it wholesale, so nothing invalidates it.
        """
        if self._lookup is None:
            values = self.dictionary.values
            has_null = bool(self.encoded.scan_eq(NULL_VID).any())
            code = self.dtype.code
            if code in _NUMERIC_INT and not has_null:
                self._lookup = np.asarray(values, dtype=np.int64)
            elif code in _NUMERIC_INT or code in _NUMERIC_FLOAT:
                self._lookup = np.append(np.asarray(values, dtype=np.float64), np.nan)
            elif code is TypeCode.BOOLEAN and not has_null:
                self._lookup = np.asarray(values, dtype=bool)
            else:
                self._lookup = np.fromiter(
                    (*values, None), dtype=object, count=len(values) + 1
                )
        return self._lookup

    def array(self) -> np.ndarray:
        """Decode the whole fragment to an analysis array."""
        return self.lookup()[self.vids()]

    def positions_of(self, vid: int) -> np.ndarray:
        """Ascending positions of *every* row holding value id ``vid``.

        A stable argsort of the value ids (radix passes: they are dense)
        plus a binary search, built once per fragment exactly like
        :meth:`lookup` (immutable fragment, so nothing invalidates it).
        Several rows can hold one key: an UPDATE is delete + insert and a
        non-compacting merge carries the dead versions into main, so value
        id → position is *not* a permutation; the caller picks the visible
        version.
        """
        if vid == NULL_VID or not len(self.encoded):
            return _NO_POSITIONS
        if self._positions is None:
            vids = self.vids()
            order = stable_argsort(vids)
            self._positions = (order, vids[order])
        order, ordered_vids = self._positions
        low, high = ordered_vids.searchsorted((vid, vid + 1))
        return order[low:high]

    def values_at(self, positions: np.ndarray) -> list[Any]:
        """Exact Python values at the given positions."""
        return self.dictionary.decode_many(self.encoded.take(np.asarray(positions, dtype=np.int64)))

    def memory_bytes(self) -> int:
        """Approximate footprint: encoded vector + dictionary payload."""
        values = self.dictionary.values
        dict_bytes = (
            8 * len(values)
            if isinstance(values, np.ndarray)
            else sum(len(v) if isinstance(v, str) else 8 for v in values)
        )
        return self.encoded.memory_bytes() + dict_bytes


class DeltaColumn:
    """Append-only raw-value buffer for writes since the last merge."""

    #: whether ``values[:_null_checked]`` holds a NULL — derived state,
    #: caught up on read by :meth:`has_null` (class defaults, so fragments
    #: pickled without them load as "not checked yet")
    _has_null = False
    _null_checked = 0

    def __init__(self, dtype: DataType) -> None:
        self.dtype = dtype
        self.values: list[Any] = []
        #: value -> position (an int), or a list of them from a value's
        #: second occurrence on; covers ``values[:_indexed]`` — see positions_of
        self._positions: dict[Any, int | list[int]] = {}
        self._indexed = 0

    def __getstate__(self) -> dict[str, Any]:
        """The position index and the NULL flag are derived state:
        rebuilt on first use."""
        state = {**self.__dict__, "_positions": {}, "_indexed": 0}
        state.pop("_has_null", None)
        state.pop("_null_checked", None)
        return state

    def __len__(self) -> int:
        return len(self.values)

    def append(self, value: Any) -> None:
        """Record one (already coerced) value."""
        self.values.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        """Record many values."""
        self.values.extend(values)

    def has_null(self) -> bool:
        """Does any row hold NULL? Caught up on read, like
        :meth:`positions_of`, so the write path has no hook."""
        values = self.values
        end = len(values)
        if not self._has_null and self._null_checked < end:
            try:
                values.index(None, self._null_checked, end)
                self._has_null = True
            except ValueError:
                pass
            self._null_checked = end
        return self._has_null

    def array(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Decode the buffer — or only the rows at the given delta-local
        positions — to an analysis array (same rules as main). The dtype
        follows the whole fragment, as ``column_array`` does: an INTEGER
        delta holding a NULL anywhere is ``float64`` at every position."""
        values = self.values if positions is None else self.values_at(positions)
        has_null = self.has_null()
        code = self.dtype.code
        if code in _NUMERIC_INT and not has_null:
            return np.asarray(values, dtype=np.int64)
        if code in _NUMERIC_INT or code in _NUMERIC_FLOAT:
            return np.asarray(
                [np.nan if value is None else float(value) for value in values],
                dtype=np.float64,
            )
        if code is TypeCode.BOOLEAN and not has_null:
            return np.asarray(values, dtype=bool)
        out = np.empty(len(values), dtype=object)
        for index, value in enumerate(values):
            out[index] = value
        return out

    def values_at(self, positions: np.ndarray) -> list[Any]:
        """Exact Python values at the given delta-local positions."""
        values = self.values
        return [values[position] for position in np.asarray(positions, dtype=np.int64).tolist()]

    def positions_of(self, value: Any) -> list[int]:
        """Ascending delta-local positions of every row holding ``value``.

        The index is caught up to ``len(values)`` here, on lookup, so the
        write path (``append``/``extend``) has no maintenance hook. NULLs
        are not indexed: NULL equals nothing.
        """
        if self._indexed < len(self.values):
            self._catch_up()
        found = self._positions.get(value)
        if found is None:
            return []
        return [found] if type(found) is int else found

    def holding(self, values: Iterable[Any]) -> set[Any]:
        """Those of ``values`` some row holds, through the same index."""
        if self._indexed < len(self.values):
            self._catch_up()
        return self._positions.keys() & values

    def _catch_up(self) -> None:
        index, values = self._positions, self.values
        for position in range(self._indexed, len(values)):
            held = values[position]
            if held is None:
                continue
            seen = index.get(held)
            if seen is None:
                index[held] = position
            elif type(seen) is int:
                index[held] = [seen, position]
            else:
                seen.append(position)
        self._indexed = len(values)

    def memory_bytes(self) -> int:
        """Approximate footprint (uncompressed, as in a real delta)."""
        return sum(
            len(value) + 49 if isinstance(value, str) else 28 for value in self.values
        )
