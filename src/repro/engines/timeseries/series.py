"""The time-series value type (§II.F).

A :class:`TimeSeries` is a sorted sequence of (epoch-second, float) pairs.
It is the unit the TIMESERIES column type carries, the compression codec
encodes, and the analytics functions operate on.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import TimeSeriesError


class TimeSeries:
    """Immutable sorted (timestamp, value) series."""

    __slots__ = ("timestamps", "values")

    def __init__(self, timestamps: Iterable[int], values: Iterable[float]) -> None:
        ts = np.asarray(list(timestamps) if not isinstance(timestamps, np.ndarray) else timestamps, dtype=np.int64)
        vs = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
        if len(ts) != len(vs):
            raise TimeSeriesError(
                f"timestamps ({len(ts)}) and values ({len(vs)}) differ in length"
            )
        if len(ts) > 1:
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
            vs = vs[order]
            if (np.diff(ts) == 0).any():
                raise TimeSeriesError("duplicate timestamps")
        self.timestamps = ts
        self.values = vs

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        for ts, value in zip(self.timestamps, self.values):
            yield int(ts), float(value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TimeSeries)
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    def __hash__(self) -> int:  # equal series have equal timestamps
        return hash(self.timestamps.tobytes())

    def __lt__(self, other: "TimeSeries") -> bool:
        """A sorted dictionary's order, one that agrees with ``==``: by the
        timestamps, then where the NaN values are, then the other values."""
        keys = [
            (s.timestamps.tolist(), np.isnan(s.values).tolist(), np.where(np.isnan(s.values), 0.0, s.values).tolist())
            for s in (self, other)
        ]
        return keys[0] < keys[1]

    def __repr__(self) -> str:
        if len(self) == 0:
            return "TimeSeries(empty)"
        return (
            f"TimeSeries({len(self)} points, "
            f"[{int(self.timestamps[0])}..{int(self.timestamps[-1])}])"
        )

    # -- accessors -----------------------------------------------------------

    @property
    def start(self) -> int:
        if len(self) == 0:
            raise TimeSeriesError("empty series has no start")
        return int(self.timestamps[0])

    @property
    def end(self) -> int:
        if len(self) == 0:
            raise TimeSeriesError("empty series has no end")
        return int(self.timestamps[-1])

    def value_at(self, timestamp: int) -> float | None:
        """Exact-timestamp lookup."""
        index = np.searchsorted(self.timestamps, timestamp)
        if index < len(self) and self.timestamps[index] == timestamp:
            return float(self.values[index])
        return None

    def slice(self, start: int | None = None, end: int | None = None) -> "TimeSeries":
        """Sub-series with start <= t <= end."""
        lo = 0 if start is None else int(np.searchsorted(self.timestamps, start, "left"))
        hi = len(self) if end is None else int(np.searchsorted(self.timestamps, end, "right"))
        return TimeSeries(self.timestamps[lo:hi], self.values[lo:hi])

    def raw_bytes(self) -> int:
        """Uncompressed footprint (8B timestamp + 8B value per point)."""
        return len(self) * 16
