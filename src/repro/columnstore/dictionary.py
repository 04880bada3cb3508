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

Both expose the same API: ``encode`` / ``encode_many`` (insert-or-lookup),
``vid_of`` (lookup only), ``value_of`` / ``decode_many``, and range helpers.
NULL is never stored; the fragment uses :data:`~repro.columnstore.compression.NULL_VID`.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Sequence

import numpy as np

from repro.columnstore.compression import NULL_VID


class SortedDictionary:
    """Sorted, deduplicated value dictionary with binary-search lookup."""

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: list[Any] = sorted(set(values))
        self._vid_by_value: dict[Any, int] = {
            value: vid for vid, value in enumerate(self._values)
        }
        #: incremented every time existing value ids had to be remapped
        self.remap_count = 0

    # -- size ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._vid_by_value

    @property
    def values(self) -> list[Any]:
        """The sorted value list (do not mutate)."""
        return self._values

    # -- lookup ---------------------------------------------------------------

    def vid_of(self, value: Any) -> int:
        """Value id of ``value`` or :data:`NULL_VID` when absent."""
        if value is None:
            return NULL_VID
        return self._vid_by_value.get(value, NULL_VID)

    def value_of(self, vid: int) -> Any:
        """Value for ``vid`` (``None`` for :data:`NULL_VID`)."""
        if vid == NULL_VID:
            return None
        return self._values[vid]

    def decode_many(self, vids: np.ndarray) -> list[Any]:
        """Decode a vector of value ids to Python values."""
        values = self._values
        return [None if vid == NULL_VID else values[vid] for vid in vids]

    # -- encoding -------------------------------------------------------------

    def encode(self, value: Any) -> int:
        """Insert-or-lookup a single value; may shift existing ids."""
        remap = self.encode_many([value])
        if remap is not None:
            # The caller of single-value encode (the delta store does not
            # use SortedDictionary) must tolerate remaps; surfaced via count.
            pass
        return self._vid_by_value[value] if value is not None else NULL_VID

    def encode_many(self, values: Sequence[Any]) -> np.ndarray | None:
        """Insert all ``values``; return the old→new vid remap or ``None``.

        When new values sort strictly after every existing value, existing
        ids stay valid and ``None`` is returned (the cheap path the
        application-aware key generation of Section III enables). Otherwise
        the returned int64 array maps old value ids to their new positions
        and the caller must rewrite its encoded vectors.
        """
        fresh = sorted({v for v in values if v is not None and v not in self._vid_by_value})
        if not fresh:
            return None
        if not self._values or fresh[0] > self._values[-1]:
            # pure append: no remap needed
            for value in fresh:
                self._vid_by_value[value] = len(self._values)
                self._values.append(value)
            return None
        old_count = len(self._values)
        merged = sorted(self._values + fresh)
        new_vid_by_value = {value: vid for vid, value in enumerate(merged)}
        remap = np.empty(old_count, dtype=np.int64)
        for old_vid, value in enumerate(self._values):
            remap[old_vid] = new_vid_by_value[value]
        self._values = merged
        self._vid_by_value = new_vid_by_value
        self.remap_count += 1
        return remap

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
        for value in values:
            self.encode(value)

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

    def value_of(self, vid: int) -> Any:
        if vid == NULL_VID:
            return None
        return self._values[vid]

    def decode_many(self, vids: np.ndarray) -> list[Any]:
        values = self._values
        return [None if vid == NULL_VID else values[vid] for vid in vids]

    def encode(self, value: Any) -> int:
        """Insert-or-lookup; never remaps existing ids."""
        if value is None:
            return NULL_VID
        vid = self._vid_by_value.get(value)
        if vid is not None:
            return vid
        if self._values and value < self._values[-1]:
            self.stable_order_violations += 1
        vid = len(self._values)
        self._values.append(value)
        self._vid_by_value[value] = vid
        return vid

    def encode_many(self, values: Sequence[Any]) -> None:
        """Insert all values; by construction never returns a remap."""
        for value in values:
            self.encode(value)
        return None

    def is_sorted(self) -> bool:
        """True when insertion order happened to be sorted so far."""
        return self.stable_order_violations == 0

    def range_vids(self, low: Any = None, high: Any = None, **_: Any) -> tuple[int, int]:
        """Range predicates need a scan here; signalled by full interval."""
        return 0, len(self._values)
