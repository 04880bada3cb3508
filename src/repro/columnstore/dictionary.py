"""Dictionary encoding for column values.

Two dictionary flavours implement the trade-off the paper discusses in
Section III ("maintenance of dictionaries of table columns"):

* :class:`SortedDictionary` — the classical HANA main-fragment dictionary:
  values are kept sorted so that value-id order equals value order, which
  makes range predicates cheap but forces a *resort and remap* when a merge
  introduces values that sort between existing ones.

* :class:`AppendDictionary` — the application-aware variant: when the
  application guarantees that new keys always sort after all existing keys
  (e.g. keys built from context + incrementing counter), the dictionary can
  simply append, keeping existing value ids stable and making the merge
  remap-free. ``stable_order_violations`` counts how often the guarantee
  was broken (the value still lands correctly, order queries fall back to
  sorting on demand).

Both expose the same API: ``encode_many`` (insert-or-lookup; the append
flavour also encodes one value at a time), ``vid_of`` / ``vids_of``
(lookup only), ``value_of`` / ``decode_many``, and range helpers.
NULL is never stored; the fragment uses :data:`~repro.columnstore.compression.NULL_VID`.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Any, Iterable, Sequence

import numpy as np

from repro.columnstore.compression import NULL_VID


def _numbers(values: Sequence[Any], dtype: np.dtype) -> tuple[np.ndarray, np.ndarray | None]:
    """The non-NULL ``values`` of a numeric column as an array of
    ``dtype``, and a mask of where they sit (``None``: everywhere). A
    float column takes NaN — which reads take for NULL already — as NULL."""
    if isinstance(values, np.ndarray):  # a typed delta's values, no NULL among them
        return values.astype(dtype, copy=False), None
    if dtype.kind == "f":
        array = np.fromiter(values, dtype=dtype, count=len(values))  # NULL -> NaN
        mask = ~np.isnan(array)
        return (array, None) if mask.all() else (array[mask], mask)
    try:
        return np.fromiter(values, dtype=dtype, count=len(values)), None
    except TypeError:  # a NULL
        mask = np.fromiter((value is not None for value in values), dtype=bool, count=len(values))
        present = [value for value in values if value is not None]
        return np.fromiter(present, dtype=dtype, count=len(present)), mask


def _sorted_unique(array: np.ndarray) -> np.ndarray:
    """``np.unique`` by one sort (NumPy's hashed unique is slower on
    numbers)."""
    array = np.sort(array)
    if len(array) < 2:
        return array
    keep = np.empty(len(array), dtype=bool)
    keep[0] = True
    np.not_equal(array[1:], array[:-1], out=keep[1:])
    return array[keep]


def _find(ordered: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Position of each ``wanted`` value in the sorted, unique
    ``ordered`` array, :data:`NULL_VID` where it is absent."""
    if not len(ordered):
        return np.full(len(wanted), NULL_VID, dtype=np.int64)
    found = np.minimum(np.searchsorted(ordered, wanted), len(ordered) - 1)
    found[ordered[found] != wanted] = NULL_VID
    return found


def _vids_through(index: dict[Any, int], values: Sequence[Any]) -> np.ndarray:
    """Value ids of ``values`` by one dict lookup each (NULL is never a
    key, so it finds :data:`NULL_VID` like any absent value)."""
    return np.fromiter(
        map(index.get, values, itertools.repeat(NULL_VID)), dtype=np.int64, count=len(values)
    )


class SortedDictionary:
    """Sorted, deduplicated value dictionary with binary-search lookup.

    With a NumPy ``dtype`` (the numeric columns: INTEGER, BIGINT, DOUBLE)
    the sorted values are an array of that dtype, and the merge's work —
    finding fresh values, merging them in, remapping old ids, encoding
    the delta — is array work (:meth:`encode_many`, :meth:`vids_of`).
    Without one they are a Python list. Either way the value → id dict
    behind :meth:`vid_of` is derived state: built on first lookup,
    extended on append, dropped on a remap and not pickled.
    """

    #: class defaults, so a dictionary pickled without them loads
    _dtype: np.dtype | None = None
    _index: dict[Any, int] | None = None

    def __init__(self, values: Iterable[Any] = (), dtype: np.dtype | None = None) -> None:
        self._dtype = dtype
        self._values: np.ndarray | list[Any] = (
            _sorted_unique(np.fromiter(values, dtype=dtype))
            if dtype is not None
            else sorted(set(values))
        )
        self._index = None
        #: incremented every time existing value ids had to be remapped
        self.remap_count = 0

    def __getstate__(self) -> dict[str, Any]:
        return {**self.__dict__, "_index": None}

    # -- size ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return self.vid_of(value) != NULL_VID

    @property
    def values(self) -> np.ndarray | list[Any]:
        """The sorted values, an array for numeric columns (do not mutate)."""
        return self._values

    # -- lookup ---------------------------------------------------------------

    def _lookup_index(self) -> dict[Any, int]:
        if self._index is None:
            values = self._values
            keys = values.tolist() if isinstance(values, np.ndarray) else values
            self._index = dict(zip(keys, range(len(keys))))
        return self._index

    def vid_of(self, value: Any) -> int:
        """Value id of ``value`` or :data:`NULL_VID` when absent."""
        if value is None:
            return NULL_VID
        return self._lookup_index().get(value, NULL_VID)

    def vids_of(self, values: Sequence[Any]) -> np.ndarray:
        """:meth:`vid_of` over a column of values of the column's type —
        for an array dictionary one ``searchsorted``."""
        if self._dtype is None:
            return _vids_through(self._lookup_index(), values)
        present, where = _numbers(values, self._dtype)
        found = _find(self._values, present)
        if where is None:
            return found
        vids = np.full(len(values), NULL_VID, dtype=np.int64)
        vids[where] = found
        return vids

    def value_of(self, vid: int) -> Any:
        """Value for ``vid`` (``None`` for :data:`NULL_VID`)."""
        if vid == NULL_VID:
            return None
        value = self._values[vid]
        return value.item() if self._dtype is not None else value

    def decode_many(self, vids: np.ndarray) -> list[Any]:
        """Decode a vector of value ids to Python values."""
        values = self._values
        if self._dtype is None:
            return [None if vid == NULL_VID else values[vid] for vid in vids]
        vids = np.asarray(vids, dtype=np.int64)
        listed = vids.tolist()  # a point read decodes one id: list work beats array work
        if NULL_VID not in listed:
            return values.take(vids).tolist()
        decoded = values.take(np.maximum(vids, 0)).tolist() if len(values) else listed
        return [None if vid == NULL_VID else value for vid, value in zip(listed, decoded)]

    # -- encoding -------------------------------------------------------------

    def encode_many(self, values: Sequence[Any]) -> np.ndarray | None:
        """Insert all ``values``; return the old→new vid remap or ``None``.

        When new values sort strictly after every existing value, existing
        ids stay valid and ``None`` is returned (the cheap path the
        application-aware key generation of Section III enables). Otherwise
        the returned int64 array maps old value ids to their new positions
        and the caller must rewrite its encoded vectors: old value ``i``
        lands at ``i`` plus the number of fresh values sorting before it —
        one ``searchsorted`` of the old values into the fresh ones for an
        array, one linear merge of the two sorted runs for a list.
        """
        old = self._values
        if self._dtype is not None:
            incoming = _sorted_unique(_numbers(values, self._dtype)[0])
            fresh = incoming[_find(old, incoming) == NULL_VID]
        else:
            distinct = set(values)
            distinct.discard(None)
            fresh = [value for value in sorted(distinct) if not self._holds(value)]
        if not len(fresh):
            return None
        if not len(old) or fresh[0] > old[-1]:
            # pure append: no remap needed
            if self._index is not None:
                added = fresh.tolist() if self._dtype is not None else fresh
                self._index.update(zip(added, range(len(old), len(old) + len(fresh))))
            if self._dtype is not None:
                self._values = np.concatenate([old, fresh])
            else:
                old.extend(fresh)
            return None
        if self._dtype is not None:
            remap = np.searchsorted(fresh, old) + np.arange(len(old))
            merged = np.empty(len(old) + len(fresh), dtype=self._dtype)
            merged[remap] = old
            merged[np.searchsorted(old, fresh) + np.arange(len(fresh))] = fresh
        else:
            # two sorted runs: one linear merge; the old values are where
            # the fresh ones are not
            merged = sorted(old + fresh)
            is_fresh = map(set(fresh).__contains__, merged)
            remap = np.flatnonzero(~np.fromiter(is_fresh, dtype=bool, count=len(merged)))
        self._values = merged
        self._index = None
        self.remap_count += 1
        return remap

    def _holds(self, value: Any) -> bool:
        """Membership by binary search: no index needed."""
        at = bisect.bisect_left(self._values, value)
        return at < len(self._values) and self._values[at] == value

    # -- order / range helpers -------------------------------------------------

    def is_sorted(self) -> bool:
        """Always true for this flavour."""
        return True

    def range_vids(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Half-open vid interval ``[lo, hi)`` covering the value range.

        Because value order equals vid order, range predicates reduce to a
        vid interval — the key benefit of the sorted dictionary.
        """
        lo = 0
        hi = len(self._values)
        if low is not None:
            side = "left" if low_inclusive else "right"
            lo = bisect.bisect_left(self._values, low) if side == "left" else bisect.bisect_right(self._values, low)
        if high is not None:
            hi = (
                bisect.bisect_right(self._values, high)
                if high_inclusive
                else bisect.bisect_left(self._values, high)
            )
        return lo, hi


class AppendDictionary:
    """Insertion-ordered dictionary: ids are stable, order is not encoded.

    This implements the SOE relaxation (Section IV.A: "compression
    requirements are relaxed ... for resorting the tables during merge")
    and the Section III application-knowledge optimisation: generated keys
    arrive in nearly sorted order, so appending preserves a *stable* sort
    order without ever remapping.
    """

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: list[Any] = []
        self._vid_by_value: dict[Any, int] = {}
        self.remap_count = 0
        #: how many encoded values broke the "new keys sort last" guarantee
        self.stable_order_violations = 0
        self.encode_many(values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._vid_by_value

    @property
    def values(self) -> list[Any]:
        """Values in insertion order (do not mutate)."""
        return self._values

    def vid_of(self, value: Any) -> int:
        if value is None:
            return NULL_VID
        return self._vid_by_value.get(value, NULL_VID)

    def vids_of(self, values: Sequence[Any]) -> np.ndarray:
        return _vids_through(self._vid_by_value, values)

    def value_of(self, vid: int) -> Any:
        if vid == NULL_VID:
            return None
        return self._values[vid]

    def decode_many(self, vids: np.ndarray) -> list[Any]:
        values = self._values
        return [None if vid == NULL_VID else values[vid] for vid in vids]

    def encode(self, value: Any) -> int:
        """Insert-or-lookup one value; never remaps existing ids."""
        vid = self._vid_by_value.get(value)
        if vid is None and value is not None:
            vid = len(self._values)
            if vid and value < self._values[-1]:
                self.stable_order_violations += 1
            self._values.append(value)
            self._vid_by_value[value] = vid
        return NULL_VID if vid is None else vid

    def encode_many(self, values: Iterable[Any]) -> None:
        """Insert the new values in first-appearance order, by a C-iterated
        ``dict.fromkeys`` and ``filterfalse``; by construction never remaps."""
        distinct = dict.fromkeys(values)
        distinct.pop(None, None)
        index = self._vid_by_value
        fresh = list(itertools.filterfalse(index.__contains__, distinct))
        if fresh:
            ordered = self._values[-1:] + fresh
            self.stable_order_violations += sum(map(operator.lt, ordered[1:], ordered[:-1]))
            index.update(zip(fresh, range(len(self._values), len(self._values) + len(fresh))))
            self._values.extend(fresh)
        return None

    def is_sorted(self) -> bool:
        """True when insertion order happened to be sorted so far."""
        return self.stable_order_violations == 0
