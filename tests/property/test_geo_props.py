"""Property tests: the grid index agrees with exhaustive scans."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engines.geo.geometry import Point
from repro.engines.geo.index import GridIndex
from repro.engines.geo.operations import euclidean

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32)
point_lists = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)


@given(point_lists, st.tuples(coords, coords), st.floats(min_value=0.1, max_value=30.0))
@example(points=[(-2.5223372357846707e-42, 0.0)], center_xy=(1.0, 0.0), radius=1.0)  # rounds inside
@settings(max_examples=80)
def test_radius_query_matches_naive(points, center_xy, radius):
    index = GridIndex(cell_size=3.0)
    keyed = [(i, Point(x, y)) for i, (x, y) in enumerate(points)]
    index.bulk_load(keyed)
    center = Point(*center_xy)
    expected = {
        key for key, point in keyed if euclidean(center, point) <= radius
    }
    got = {key for key, _point in index.within_radius(center, radius)}
    assert got == expected


@given(point_lists, st.tuples(coords, coords), st.tuples(coords, coords))
@settings(max_examples=80)
def test_box_query_matches_naive(points, corner_a, corner_b):
    min_x, max_x = sorted((corner_a[0], corner_b[0]))
    min_y, max_y = sorted((corner_a[1], corner_b[1]))
    index = GridIndex(cell_size=5.0)
    keyed = [(i, Point(x, y)) for i, (x, y) in enumerate(points)]
    index.bulk_load(keyed)
    expected = {
        key
        for key, point in keyed
        if min_x <= point.x <= max_x and min_y <= point.y <= max_y
    }
    got = {key for key, _p in index.in_box(min_x, min_y, max_x, max_y)}
    assert got == expected
