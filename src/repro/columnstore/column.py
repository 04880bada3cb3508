"""Column fragments: the read-optimised main and the write-optimised delta.

A column of a table partition consists of

* a :class:`MainColumn` — immutable, dictionary encoded, compressed; rebuilt
  only by the delta merge, and
* a :class:`DeltaColumn` — an append-only buffer of raw values recording all
  changes since the last merge (paper, Section III: "a buffer structure
  called delta store which records all changes").

Scans read main and delta side by side; positions ``[0, n_main)`` address
main rows, ``[n_main, n_main + n_delta)`` address delta rows.
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

Dictionary = SortedDictionary | AppendDictionary

_NUMERIC_INT = (TypeCode.INTEGER, TypeCode.BIGINT)
_NUMERIC_FLOAT = (TypeCode.DOUBLE, TypeCode.DECIMAL)


class MainColumn:
    """Immutable dictionary-encoded, compressed column fragment."""

    def __init__(
        self,
        dtype: DataType,
        dictionary: Dictionary | None = None,
        encoded: EncodedVector | None = None,
    ) -> None:
        self.dtype = dtype
        self.dictionary: Dictionary = dictionary if dictionary is not None else SortedDictionary()
        self.encoded: EncodedVector = (
            encoded if encoded is not None else BitPackedVector(np.empty(0, dtype=np.int64))
        )
        self._lookup: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        dtype: DataType,
        values: Sequence[Any],
        sorted_dictionary: bool = True,
    ) -> "MainColumn":
        """Build a fragment from raw values (used by merge and bulk load)."""
        dictionary: Dictionary = (
            SortedDictionary(v for v in values if v is not None)
            if sorted_dictionary
            else AppendDictionary()
        )
        if not sorted_dictionary:
            dictionary.encode_many([v for v in values if v is not None])
        vids = np.fromiter(
            (dictionary.vid_of(value) for value in values),
            dtype=np.int64,
            count=len(values),
        )
        return cls(dtype, dictionary, choose_encoding(vids))

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

    def values_at(self, positions: np.ndarray) -> list[Any]:
        """Exact Python values at the given positions."""
        return self.dictionary.decode_many(self.encoded.take(np.asarray(positions, dtype=np.int64)))

    def memory_bytes(self) -> int:
        """Approximate footprint: encoded vector + dictionary payload."""
        dict_bytes = sum(
            len(v) if isinstance(v, str) else 8 for v in self.dictionary.values
        )
        return self.encoded.memory_bytes() + dict_bytes


class DeltaColumn:
    """Append-only raw-value buffer for writes since the last merge."""

    def __init__(self, dtype: DataType) -> None:
        self.dtype = dtype
        self.values: list[Any] = []

    def __len__(self) -> int:
        return len(self.values)

    def append(self, value: Any) -> None:
        """Record one (already coerced) value."""
        self.values.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        """Record many values."""
        self.values.extend(values)

    def array(self) -> np.ndarray:
        """Decode the buffer to an analysis array (same rules as main)."""
        has_null = any(value is None for value in self.values)
        code = self.dtype.code
        if code in _NUMERIC_INT and not has_null:
            return np.asarray(self.values, dtype=np.int64)
        if code in _NUMERIC_INT or code in _NUMERIC_FLOAT:
            return np.asarray(
                [np.nan if value is None else float(value) for value in self.values],
                dtype=np.float64,
            )
        if code is TypeCode.BOOLEAN and not has_null:
            return np.asarray(self.values, dtype=bool)
        out = np.empty(len(self.values), dtype=object)
        for index, value in enumerate(self.values):
            out[index] = value
        return out

    def values_at(self, positions: np.ndarray) -> list[Any]:
        """Exact Python values at the given delta-local positions."""
        return [self.values[int(position)] for position in positions]

    def memory_bytes(self) -> int:
        """Approximate footprint (uncompressed, as in a real delta)."""
        return sum(
            len(value) + 49 if isinstance(value, str) else 28 for value in self.values
        )
