"""Uniform grid spatial index for point data (benchmark E13 fast path)."""

from __future__ import annotations

import math
from typing import Hashable, Iterable

from repro.engines.geo.geometry import Point, Polygon
from repro.engines.geo.operations import euclidean
from repro.errors import GeoError


class GridIndex:
    """Buckets points into square cells of side ``cell_size``.

    Range and radius queries visit only the overlapping cells — the
    classical trade-off: coarse cells degrade to a scan, tiny cells waste
    memory; the default targets tens of points per cell for uniform data.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise GeoError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], list[tuple[Hashable, Point]]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _cell_of(self, point: Point) -> tuple[int, int]:
        return (
            math.floor(point.x / self.cell_size),
            math.floor(point.y / self.cell_size),
        )

    def insert(self, key: Hashable, point: Point) -> None:
        """Add one keyed point."""
        self._cells.setdefault(self._cell_of(point), []).append((key, point))
        self._count += 1

    def bulk_load(self, items: Iterable[tuple[Hashable, Point]]) -> None:
        for key, point in items:
            self.insert(key, point)

    def within_radius(self, center: Point, radius: float) -> list[tuple[Hashable, Point]]:
        """All points within ``radius`` (planar) of ``center``."""
        result: list[tuple[Hashable, Point]] = []
        # the distance test rounds: a point a rounding error outside the
        # radius's box can still measure as inside, so its cell must be visited
        reach = radius + 4 * math.ulp(abs(center.x) + abs(center.y) + radius)
        min_cx = math.floor((center.x - reach) / self.cell_size)
        max_cx = math.floor((center.x + reach) / self.cell_size)
        min_cy = math.floor((center.y - reach) / self.cell_size)
        max_cy = math.floor((center.y + reach) / self.cell_size)
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                for key, point in self._cells.get((cx, cy), ()):
                    if euclidean(center, point) <= radius:
                        result.append((key, point))
        return result

    def in_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> list[tuple[Hashable, Point]]:
        """All points inside the axis-aligned box (inclusive)."""
        result: list[tuple[Hashable, Point]] = []
        for cx in range(math.floor(min_x / self.cell_size), math.floor(max_x / self.cell_size) + 1):
            for cy in range(math.floor(min_y / self.cell_size), math.floor(max_y / self.cell_size) + 1):
                for key, point in self._cells.get((cx, cy), ()):
                    if min_x <= point.x <= max_x and min_y <= point.y <= max_y:
                        result.append((key, point))
        return result

    def in_polygon(self, polygon: Polygon) -> list[tuple[Hashable, Point]]:
        """All points contained in the polygon (bbox prefilter + exact)."""
        from repro.engines.geo.operations import contains

        min_x, min_y, max_x, max_y = polygon.bounding_box()
        return [
            (key, point)
            for key, point in self.in_box(min_x, min_y, max_x, max_y)
            if contains(polygon, point)
        ]

    def nearest(self, center: Point, count: int = 1) -> list[tuple[Hashable, Point]]:
        """k-nearest neighbours by expanding ring search."""
        if self._count == 0 or count <= 0:
            return []
        radius = self.cell_size
        while True:
            candidates = self.within_radius(center, radius)
            if len(candidates) >= count or radius > self.cell_size * (1 + self._count):
                candidates.sort(key=lambda item: euclidean(center, item[1]))
                return candidates[:count]
            radius *= 2.0
