"""Column fragments: the read-optimised main and the write-optimised delta.

A column of a table partition consists of

* a :class:`MainColumn` — immutable, dictionary encoded, compressed; rebuilt
  only by the delta merge, and
* a :class:`DeltaColumn` — the writes since the last merge (paper, Section
  III: "a buffer structure called delta store which records all changes"),
  stored as a scan reads them: numbers and booleans in a growable typed
  array plus NULL flags, every other type as int64 codes into an unsorted
  :class:`~repro.columnstore.dictionary.AppendDictionary`.

Positions ``[0, n_main)`` address main rows, ``[n_main, n_main + n_delta)``
delta rows. Both fragments answer one read interface on positions local to
them: ``take`` (INTEGER/BIGINT as ``int64``, DOUBLE/DECIMAL ``float64``,
BOOLEAN ``bool``, other types a :class:`~repro.util.arrays.Coded` column;
with a NULL held, the dtype :func:`~repro.util.arrays.with_nulls` gives —
the one values-to-column rule: floats keep NaN for NULL, integers and
booleans become exact Python values beside ``None``),
``mask`` (``column <op> literals`` on the stored form), ``values_at``
(exact values), ``positions_of`` / ``holding`` and ``has_null``.

``positions_of`` — the primary-key access path — is answered from a
position index each fragment builds on first use, with no invalidation
hook: a main fragment never changes, a delta only grows, and the merge
(like tiering) replaces both objects wholesale. Derived state is not
pickled.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Sequence

import numpy as np

from repro.columnstore.compression import (
    NULL_VID,
    BitPackedVector,
    EncodedVector,
    choose_encoding,
)
from repro.columnstore.dictionary import AppendDictionary, SortedDictionary
from repro.core.types import DataType, TypeCode
from repro.util.arrays import Coded, Column, GrowableArray, stable_argsort, with_nulls

Dictionary = SortedDictionary | AppendDictionary

_NO_POSITIONS = np.empty(0, dtype=np.int64)

#: the column types a fragment hands on as a typed array, and its dtype;
#: every other type is dictionary coded
_ARRAYS = {
    TypeCode.INTEGER: np.dtype(np.int64),
    TypeCode.BIGINT: np.dtype(np.int64),
    TypeCode.DOUBLE: np.dtype(np.float64),
    TypeCode.DECIMAL: np.dtype(np.float64),
    TypeCode.BOOLEAN: np.dtype(bool),
}
_TYPED = tuple(_ARRAYS)  # membership by identity: an enum hashes in Python

#: the column types whose sorted dictionary is a NumPy array
_ARRAY_DICTIONARY = {code: _ARRAYS[code] for code in (TypeCode.INTEGER, TypeCode.BIGINT, TypeCode.DOUBLE)}

_RANGE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _sorted_dictionary_for(dtype: DataType) -> SortedDictionary:
    return SortedDictionary(dtype=_ARRAY_DICTIONARY.get(dtype.code))


def _object_table(values: Sequence[Any]) -> np.ndarray:
    """A coded column's decode table: the values, then ``None`` for
    :data:`NULL_VID` (-1)."""
    return np.fromiter((*values, None), dtype=object, count=len(values) + 1)


def _test(values: np.ndarray, op: str, literals: Sequence[Any]) -> np.ndarray:
    """``values <op> literals``: equal to one of them for ``=``, ``<>`` and
    ``IN``, inside the range (``BETWEEN`` bounds inclusive) otherwise."""
    if op in ("=", "<>", "IN"):
        hit = np.zeros(len(values), dtype=bool)
        for literal in literals:
            hit |= values == literal
        return hit
    if op == "BETWEEN":
        return (values >= literals[0]) & (values <= literals[1])
    return np.asarray(_RANGE[op](values, literals[0]), dtype=bool)


def _codes_mask(
    dictionary: Dictionary, codes: np.ndarray, op: str, literals: tuple[Any, ...], negated: bool
) -> np.ndarray:
    """``<op> literals`` on rows held as codes into ``dictionary``
    (:data:`NULL_VID` for NULL, which satisfies neither test nor negation):
    each literal looked up once, a range a value-id interval of a sorted
    dictionary or else tested once per dictionary entry."""
    if op in ("=", "<>", "IN"):
        hit = _test(codes, op, [vid for vid in map(dictionary.vid_of, literals) if vid != NULL_VID])
        negated = negated or op == "<>"
    elif isinstance(dictionary, SortedDictionary):
        if op == "BETWEEN":
            low, high = dictionary.range_vids(*literals)
        elif op in ("<", "<="):
            low, high = dictionary.range_vids(high=literals[0], high_inclusive=op == "<=")
        else:
            low, high = dictionary.range_vids(low=literals[0], low_inclusive=op == ">=")
        hit = (codes >= low) & (codes < high)  # low >= 0 keeps NULL_VID out
    else:
        entries = np.fromiter(dictionary.values, dtype=object, count=len(dictionary))
        hit = np.append(_test(entries, op, literals), False)[codes]
    return ~hit & (codes != NULL_VID) if negated else hit


def _typed(values: Sequence[Any], dtype: np.dtype) -> tuple[np.ndarray, np.ndarray | None]:
    """Coerced values as an array of ``dtype`` and their NULL flags (None:
    none) by one ``fromiter``, which refuses a NULL among integers, so that
    only the other types look for one first."""
    count = len(values)
    if dtype.kind == "i" or None not in values:
        try:
            return np.fromiter(values, dtype=dtype, count=count), None
        except TypeError:  # a NULL among integers
            pass
    flags = np.fromiter(map(operator.is_, values, itertools.repeat(None)), dtype=bool, count=count)
    boxed = np.array(values, dtype=object)
    boxed[flags] = False  # a value of every type; the flag says NULL
    return boxed.astype(dtype), flags


def _payload_bytes(values: np.ndarray | list[Any]) -> int:
    """Approximate footprint of a dictionary's values."""
    if isinstance(values, np.ndarray):
        return 8 * len(values)
    return sum(len(v) if isinstance(v, str) else 8 for v in values)


class Fragment:
    """What main and delta share beyond the interface each implements."""

    def array(self) -> np.ndarray:
        """The whole fragment decoded to an analysis array."""
        column = self.take(np.arange(len(self)))
        return column.decode() if isinstance(column, Coded) else column


class MainColumn(Fragment):
    """Immutable dictionary-encoded, compressed column fragment."""

    #: whether a row is NULL: derived state (a class default, so that
    #: fragments pickled without it load as "not known yet")
    _has_null: bool | None = None

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
        return {**self.__dict__, "_lookup": None, "_positions": None, "_has_null": None}

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

    def has_null(self) -> bool:
        """Does any row hold NULL? Worked out once: the fragment is immutable."""
        if self._has_null is None:
            self._has_null = bool((self.encoded.decode() == NULL_VID).any())
        return self._has_null

    def lookup(self) -> np.ndarray:
        """The decode table: ``lookup()[vids]`` is the analysis array, a
        NULL in a trailing slot, which :data:`NULL_VID` (-1) indexes. Built
        once per fragment: the merge replaces a fragment wholesale."""
        if self._lookup is None:
            values = self.dictionary.values
            array_dtype = _ARRAYS.get(self.dtype.code)
            if array_dtype is None:
                self._lookup = _object_table(values)
            elif self.has_null():
                table = with_nulls(np.asarray(values, dtype=array_dtype))
                self._lookup = np.append(table, np.nan if table.dtype.kind == "f" else None)
            else:
                self._lookup = np.asarray(values, dtype=array_dtype)
        return self._lookup

    def take(self, positions: np.ndarray) -> Column:
        """The rows at ``positions`` as an analysis column."""
        vids = self.encoded.take(positions)
        return self.lookup()[vids] if self.dtype.code in _TYPED else Coded(vids, self.lookup())

    def mask(self, positions: np.ndarray, op: str, literals: tuple[Any, ...], negated: bool) -> np.ndarray:
        """``column <op> literals`` at ``positions``, on value ids."""
        return _codes_mask(self.dictionary, self.encoded.take(positions), op, literals, negated)

    def values_at(self, positions: np.ndarray) -> list[Any]:
        """Exact Python values at the given positions."""
        return self.dictionary.decode_many(self.encoded.take(np.asarray(positions, dtype=np.int64)))

    def positions_of(self, value: Any) -> np.ndarray:
        """Ascending positions of *every* row holding ``value``.

        A stable argsort of the value ids (radix passes: they are dense)
        plus a binary search, built once per fragment exactly like
        :meth:`lookup` (immutable fragment, so nothing invalidates it).
        Several rows can hold one key: an UPDATE is delete + insert and a
        non-compacting merge carries the dead versions into main, so value
        id → position is *not* a permutation; the caller picks the visible
        version.
        """
        vid = self.dictionary.vid_of(value)
        if vid == NULL_VID or not len(self.encoded):
            return _NO_POSITIONS
        if self._positions is None:
            vids = self.encoded.decode()
            order = stable_argsort(vids)
            self._positions = (order, vids[order])
        order, ordered_vids = self._positions
        low, high = ordered_vids.searchsorted((vid, vid + 1))
        return order[low:high]

    def holding(self, values: Sequence[Any]) -> set[Any]:
        """Those of the non-NULL ``values`` some row holds, by one dictionary
        lookup: a superset when the dictionary keeps a value no row holds."""
        found = np.flatnonzero(self.dictionary.vids_of(values) != NULL_VID)
        return {values[index] for index in found.tolist()}

    def memory_bytes(self) -> int:
        """Approximate footprint: encoded vector + dictionary payload."""
        return self.encoded.memory_bytes() + _payload_bytes(self.dictionary.values)


class DeltaColumn(Fragment):
    """Append-only write fragment: typed values (numbers, booleans) or
    codes into an append-order dictionary (other types), one NULL flag per
    row once a NULL was written."""

    def __init__(self, dtype: DataType) -> None:
        self.dtype = dtype
        array_dtype = _ARRAYS.get(dtype.code)
        #: the codes' dictionary; None for a typed fragment
        self.dictionary = AppendDictionary() if array_dtype is None else None
        #: one value, or one code (NULL_VID for NULL), per row
        self.data = GrowableArray(dtype=np.int64 if array_dtype is None else array_dtype)
        self.nulls: GrowableArray | None = None
        #: value -> position (an int), or a list of them from a value's
        #: second occurrence on; covers rows ``[0, _indexed)`` — see positions_of
        self._positions: dict[Any, int | list[int]] = {}
        self._indexed = 0

    def __getstate__(self) -> dict[str, Any]:
        """The position index is derived state."""
        return {**self.__dict__, "_positions": {}, "_indexed": 0}

    def __len__(self) -> int:
        return len(self.data)

    def extend(self, values: Sequence[Any]) -> None:
        """Record a column of (already coerced) values: one array
        conversion, or one dictionary pass, and no Python call per value."""
        if len(values) == 1 and values[0] is not None and self.nulls is None:
            # a point write's one value: no round trip through an array
            self.data.fill(values[0] if self.dictionary is None else self.dictionary.encode(values[0]), 1)
            return
        if self.dictionary is None:
            data, flags = _typed(values, self.data.view().dtype)
        else:
            self.dictionary.encode_many(values)
            data = self.dictionary.vids_of(values)
            flags = data == NULL_VID if None in values else None
        if flags is not None and self.nulls is None:
            self.nulls = GrowableArray(np.zeros(len(self), dtype=bool), dtype=bool)
        if self.nulls is not None:
            self.nulls.extend(np.zeros(len(data), dtype=bool) if flags is None else flags)
        self.data.extend(data)

    def has_null(self) -> bool:
        return self.nulls is not None

    def take(self, positions: np.ndarray) -> Column:
        """The rows at the given (index array of) positions as an analysis
        column."""
        data = self.data.view()[positions]
        if self.dictionary is not None:
            return Coded(data, _object_table(self.dictionary.values))
        if self.nulls is None:
            return data
        column = with_nulls(data)
        column[self.nulls.view()[positions]] = np.nan if column.dtype.kind == "f" else None
        return column

    def mask(self, positions: np.ndarray, op: str, literals: tuple[Any, ...], negated: bool) -> np.ndarray:
        """``column <op> literals`` at the given positions: codes as in
        main, typed values compared with the literals."""
        data = self.data.view()[positions]
        if self.dictionary is not None:
            return _codes_mask(self.dictionary, data, op, literals, negated)
        hit = _test(data, op, literals)
        if negated or op == "<>":
            hit = ~hit
        return hit if self.nulls is None else hit & ~self.nulls.view()[positions]

    def values_at(self, positions: np.ndarray | slice) -> list[Any]:
        """Exact Python values at the given positions."""
        data = self.data.view()[positions]
        if self.dictionary is not None:
            return self.dictionary.decode_many(data)
        if self.nulls is None:
            return data.tolist()
        boxed = data.astype(object)
        boxed[self.nulls.view()[positions]] = None
        return boxed.tolist()

    def entries(self) -> tuple[list[Any], np.ndarray]:
        """What the merge encodes — entries, and each row's index into them:
        the dictionary and the codes, or the values, each its row's own
        entry (an array; a list holding ``None`` once a NULL was written)."""
        if self.dictionary is not None:
            return self.dictionary.values, self.data.view()
        values = self.data.view() if self.nulls is None else self.values_at(slice(None))
        return values, np.arange(len(self))

    def positions_of(self, value: Any) -> np.ndarray:
        """Ascending positions of every row holding ``value`` (none for
        NULL), from an index caught up on lookup, so that the write path
        has no maintenance hook."""
        found = self._index().get(value)
        if found is None:
            return _NO_POSITIONS
        return np.asarray([found] if type(found) is int else found, dtype=np.int64)

    def holding(self, values: Sequence[Any]) -> set[Any]:
        """Those of ``values`` some row holds, through the same index."""
        return self._index().keys() & values

    def _index(self) -> dict[Any, int | list[int]]:
        index, start, end = self._positions, self._indexed, len(self)
        if start < end:
            for position, value in enumerate(self.values_at(slice(start, end)), start):
                if value is None:
                    continue
                seen = index.get(value)
                if seen is None:
                    index[value] = position
                elif type(seen) is int:
                    index[value] = [seen, position]
                else:
                    seen.append(position)
            self._indexed = end
        return index

    def memory_bytes(self) -> int:
        """Approximate footprint: values or codes, NULL flags, dictionary."""
        payload = 0 if self.dictionary is None else _payload_bytes(self.dictionary.values)
        return self.data.view().nbytes + (0 if self.nulls is None else len(self.nulls)) + payload
