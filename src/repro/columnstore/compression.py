"""Compressed representations for value-id vectors.

The main fragment of a column stores dictionary value ids. On delta merge
the engine picks a physical encoding per column based on the data's shape
(paper, Section II.A: "applying multiple compression techniques"):

* :class:`BitPackedVector` — plain array using the narrowest integer dtype
  that can hold the largest value id (the NumPy stand-in for n-bit packing).
* :class:`RunLengthVector` — run-length encoding for sorted or low-churn
  columns.
* :class:`SparseVector` — most-frequent-value encoding for very sparse
  columns (Section II.H: "internal compression methods can handle also very
  sparse columns").

All encodings answer the same read API so the scan layer is agnostic:
``decode()``, ``take(positions)``, ``__len__``, ``memory_bytes()``.
"""

from __future__ import annotations

import numpy as np

#: Value id used for SQL NULL in encoded vectors.
NULL_VID = -1


def _narrowest_dtype(max_abs: int) -> np.dtype:
    """Smallest signed integer dtype that can hold ``max_abs`` and -1."""
    for dtype in (np.int8, np.int16, np.int32):
        if max_abs <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class EncodedVector:
    """Common interface for the physical encodings (abstract base)."""

    def decode(self) -> np.ndarray:
        """Materialise the full value-id vector as ``int64``."""
        raise NotImplementedError

    def take(self, positions: np.ndarray) -> np.ndarray:
        """Value ids at ``positions`` (int64)."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Approximate compressed footprint in bytes."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class BitPackedVector(EncodedVector):
    """Dense vector stored with the narrowest integer dtype."""

    def __init__(self, vids: np.ndarray) -> None:
        vids = np.asarray(vids, dtype=np.int64)
        max_abs = int(vids.max(initial=0))
        self._data = vids.astype(_narrowest_dtype(max_abs))

    def decode(self) -> np.ndarray:
        return self._data.astype(np.int64)

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._data[positions].astype(np.int64)

    def memory_bytes(self) -> int:
        return self._data.nbytes

    def __len__(self) -> int:
        return len(self._data)


class RunLengthVector(EncodedVector):
    """Run-length encoding: (start offset, value id) per run."""

    def __init__(self, vids: np.ndarray) -> None:
        vids = np.asarray(vids, dtype=np.int64)
        self._length = len(vids)
        if self._length == 0:
            self._starts = np.empty(0, dtype=np.int64)
            self._values = np.empty(0, dtype=np.int64)
            return
        change = np.empty(self._length, dtype=bool)
        change[0] = True
        np.not_equal(vids[1:], vids[:-1], out=change[1:])
        self._starts = np.flatnonzero(change).astype(np.int64)
        self._values = vids[self._starts]

    @property
    def run_count(self) -> int:
        """Number of runs (useful for compression-ratio reporting)."""
        return len(self._starts)

    def decode(self) -> np.ndarray:
        if self._length == 0:
            return np.empty(0, dtype=np.int64)
        lengths = np.diff(np.append(self._starts, self._length))
        return np.repeat(self._values, lengths)

    def take(self, positions: np.ndarray) -> np.ndarray:
        if self._length == 0:
            return np.empty(0, dtype=np.int64)
        run_index = np.searchsorted(self._starts, positions, side="right") - 1
        return self._values[run_index]

    def memory_bytes(self) -> int:
        return self._starts.nbytes + self._values.nbytes

    def __len__(self) -> int:
        return self._length


class SparseVector(EncodedVector):
    """Most-frequent-value encoding: default vid + exception positions."""

    def __init__(self, vids: np.ndarray, default_vid: int) -> None:
        vids = np.asarray(vids, dtype=np.int64)
        self._length = len(vids)
        self._default = int(default_vid)
        exceptions = np.flatnonzero(vids != default_vid)
        self._positions = exceptions.astype(np.int64)
        packed = vids[exceptions]
        max_abs = int(packed.max(initial=0))
        self._values = packed.astype(_narrowest_dtype(max_abs))

    @property
    def default_vid(self) -> int:
        """The dominant value id elided from storage."""
        return self._default

    @property
    def exception_count(self) -> int:
        """How many positions deviate from the default."""
        return len(self._positions)

    def decode(self) -> np.ndarray:
        out = np.full(self._length, self._default, dtype=np.int64)
        out[self._positions] = self._values.astype(np.int64)
        return out

    def take(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        out = np.full(len(positions), self._default, dtype=np.int64)
        if len(self._positions):
            found = np.searchsorted(self._positions, positions)
            found = np.clip(found, 0, len(self._positions) - 1)
            hit = self._positions[found] == positions
            out[hit] = self._values[found[hit]].astype(np.int64)
        return out

    def memory_bytes(self) -> int:
        return self._positions.nbytes + self._values.nbytes + 8

    def __len__(self) -> int:
        return self._length


def choose_encoding(vids: np.ndarray) -> EncodedVector:
    """Pick the cheapest encoding for ``vids`` by estimated footprint.

    The heuristic mirrors a real column store's merge-time decision: count
    runs and the dominant value's share, then compare estimated sizes.
    Value ids are dense (``NULL_VID`` up to the dictionary size), so the
    share comes from one ``bincount`` no longer than the dictionary.
    """
    vids = np.asarray(vids, dtype=np.int64)
    if len(vids) == 0:
        return BitPackedVector(vids)

    candidates: list[EncodedVector] = [BitPackedVector(vids)]

    runs = int(np.count_nonzero(vids[1:] != vids[:-1])) + 1
    if runs * 16 < candidates[0].memory_bytes():
        candidates.append(RunLengthVector(vids))

    counts = np.bincount(vids - NULL_VID)
    top = int(counts.argmax())
    if counts[top] >= 0.6 * len(vids):
        candidates.append(SparseVector(vids, top + NULL_VID))

    return min(candidates, key=lambda enc: enc.memory_bytes())


def compression_report(encoded: EncodedVector) -> dict[str, float | str]:
    """Small stats dict for monitoring and the compression benchmarks."""
    raw_bytes = max(len(encoded) * 8, 1)
    return {
        "encoding": type(encoded).__name__,
        "rows": float(len(encoded)),
        "compressed_bytes": float(encoded.memory_bytes()),
        "ratio": raw_bytes / max(encoded.memory_bytes(), 1),
    }
