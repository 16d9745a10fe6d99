import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ancestor_at, cell_center, children_of
from spatialfp.errors import InvalidLevel, MalformedGid, PointOutOfBounds
from spatialfp.grid import (
    _spread_bits,
    MAX_HEIGHT,
    METERS_PER_DEGREE,
    ROOT,
    BoundingBox,
    GeoPoint,
    Gid,
    Grid,
    cell_bounds,
    choose_height,
    encode,
    gid_str,
    parse_gid,
)

BOX = BoundingBox(0.0, 0.0, 4.0, 4.0)
GRID1 = Grid(BOX, 1)
GRID2 = Grid(BOX, 2)


def test_bounding_box_rejects_degenerate():
    with pytest.raises(ValueError):
        BoundingBox(1.0, 0.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 5.0, 4.0, 4.0)


@pytest.mark.parametrize("edges", [
    (-math.inf, 0.0, 4.0, 4.0),
    (0.0, 0.0, math.inf, 4.0),
    (0.0, -math.inf, 4.0, math.inf),
    (0.0, math.nan, 4.0, 4.0),
])
def test_bounding_box_rejects_non_finite_edges(edges):
    with pytest.raises(ValueError, match="finite"):
        BoundingBox(*edges)


def test_grid_height_range():
    Grid(BOX, 0)
    Grid(BOX, MAX_HEIGHT)
    with pytest.raises(ValueError):
        Grid(BOX, -1)
    with pytest.raises(ValueError):
        Grid(BOX, MAX_HEIGHT + 1)
    # numpy integers are integers; floats and bools are refused.
    assert type(Grid(BOX, np.int64(2)).height) is int
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(TypeError, match="grid height must be an integer"):
            Grid(BOX, bad)


@pytest.mark.parametrize("point,code", [
    (GeoPoint(1.0, 1.0), 0b00),  # lower left
    (GeoPoint(3.0, 1.0), 0b01),  # lower right: x bit is the low bit
    (GeoPoint(1.0, 3.0), 0b10),  # upper left
    (GeoPoint(3.0, 3.0), 0b11),  # upper right
])
def test_encode_quadrant_digits(point, code):
    assert encode(point, GRID1) == Gid(1, code)


def test_encode_nests_two_levels():
    # (1, 1) sits in the lower-left quarter, then in its upper-right quarter.
    assert encode(GeoPoint(1.0, 1.0), GRID2) == Gid(2, 0b0011)


def test_encode_clamps_max_edges():
    assert encode(GeoPoint(4.0, 4.0), GRID1) == Gid(1, 0b11)
    assert encode(GeoPoint(4.0, 0.0), GRID2) == Gid(2, 0b0101)


def test_encode_height_zero_is_root():
    assert encode(GeoPoint(3.9, 0.1), Grid(BOX, 0)) == ROOT


def test_encode_rejects_outside():
    with pytest.raises(PointOutOfBounds):
        encode(GeoPoint(4.0001, 1.0), GRID1)
    with pytest.raises(PointOutOfBounds):
        encode(GeoPoint(1.0, -0.1), GRID1)


def test_ancestor_chain():
    gid = Gid(3, 0b000110)
    assert ancestor_at(gid, 1) == Gid(1, 0b00)
    assert ancestor_at(gid, 2) == Gid(2, 0b0001)
    assert ancestor_at(gid, 3) == gid
    assert ancestor_at(gid, 0) == ROOT


def test_ancestor_rejects_bad_levels():
    gid = Gid(2, 0b0110)
    with pytest.raises(InvalidLevel):
        ancestor_at(gid, 3)
    with pytest.raises(InvalidLevel):
        ancestor_at(gid, -1)


def test_children_append_quadrant_digits():
    assert children_of(Gid(1, 0b01), 2) == [
        Gid(2, 0b0100), Gid(2, 0b0101), Gid(2, 0b0110), Gid(2, 0b0111)]


def test_children_of_leaf_rejected():
    with pytest.raises(InvalidLevel):
        children_of(Gid(2, 0), 2)


def _square_box_meters(extent: float) -> BoundingBox:
    d = extent / METERS_PER_DEGREE
    return BoundingBox(0.0, -d / 2.0, d, d / 2.0)


@pytest.mark.parametrize("target,height", [
    (1024.0, 0),   # already small enough
    (2000.0, 0),
    (512.0, 1),    # exact power of two stays exact
    (100.0, 4),    # 1024 / 2^4 = 64 <= 100
])
def test_choose_height_examples(target, height):
    assert choose_height(_square_box_meters(1024.0), target) == height


def test_choose_height_rejects_nonpositive_target():
    for target in (0.0, -5.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            choose_height(BOX, target)


def test_choose_height_clamps_a_ratio_past_float_range():
    # 4 degrees over 1e-320 m overflows to an infinite ratio.
    assert choose_height(BOX, 1e-320) == MAX_HEIGHT
    assert choose_height(BOX, math.inf) == 0


@given(st.floats(min_value=1.0, max_value=1e6))
def test_choose_height_meets_target(target):
    box = _square_box_meters(40_000.0)
    h = choose_height(box, target)
    if h < MAX_HEIGHT:
        assert 40_000.0 / (1 << h) <= target * (1 + 1e-9)
    if h > 0:
        assert 40_000.0 / (1 << (h - 1)) > target


@pytest.mark.parametrize("gid,s", [
    (ROOT, ""),
    (Gid(1, 0b01), "01"),
    (Gid(3, 0b000110), "000110"),
])
def test_gid_str_examples(gid, s):
    assert gid_str(gid) == s
    assert parse_gid(s, 3) == gid


@pytest.mark.parametrize("s", ["011", "0a", "000110__", "2", "00000000"])
def test_parse_gid_rejects_malformed(s):
    with pytest.raises(MalformedGid):
        parse_gid(s, 3)


def test_cell_bounds_quarters():
    assert cell_bounds(Gid(1, 0b00), GRID1) == (0.0, 0.0, 2.0, 2.0)
    assert cell_bounds(Gid(1, 0b01), GRID1) == (2.0, 0.0, 4.0, 2.0)
    assert cell_bounds(Gid(1, 0b10), GRID1) == (0.0, 2.0, 2.0, 4.0)
    assert cell_bounds(Gid(1, 0b11), GRID1) == (2.0, 2.0, 4.0, 4.0)
    assert cell_bounds(ROOT, GRID1) == (0.0, 0.0, 4.0, 4.0)


def test_cell_bounds_rejects_below_grid():
    with pytest.raises(InvalidLevel):
        cell_bounds(Gid(2, 0), GRID1)


def test_cell_center_root():
    assert cell_center(ROOT, GRID1) == GeoPoint(2.0, 2.0)


points = st.builds(
    GeoPoint,
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
heights = st.integers(min_value=0, max_value=8)


# Points on the box's maximum edges, which encode clamps into the last cells.
edge_points = st.builds(
    GeoPoint,
    st.sampled_from([0.0, 4.0]) | st.floats(min_value=0.0, max_value=4.0),
    st.sampled_from([0.0, 4.0]) | st.floats(min_value=0.0, max_value=4.0),
)


@given(points | edge_points, st.integers(min_value=0, max_value=MAX_HEIGHT))
def test_encode_bounds_roundtrip(p, height):
    grid = Grid(BOX, height)
    gid = encode(p, grid)
    assert gid.level == height
    assert 0 <= gid.code < 4 ** height
    lon0, lat0, lon1, lat1 = cell_bounds(gid, grid)
    assert lon0 <= p.lon <= lon1
    assert lat0 <= p.lat <= lat1
    # Up to height 16 the code comes from a table, beyond it from _spread_bits.
    n = 1 << height
    ix = min(int(p.lon / 4.0 * n), n - 1)
    iy = min(int(p.lat / 4.0 * n), n - 1)
    assert gid.code == _spread_bits(ix) | _spread_bits(iy) << 1


@given(points, heights)
def test_center_encodes_back_to_same_cell(p, height):
    grid = Grid(BOX, height)
    gid = encode(p, grid)
    assert encode(cell_center(gid, grid), grid) == gid


@given(points, heights, st.integers(min_value=0, max_value=8))
def test_ancestor_code_is_bit_prefix(p, height, level):
    level = min(level, height)
    gid = encode(p, Grid(BOX, height))
    anc = ancestor_at(gid, level)
    assert gid_str(anc) == gid_str(gid)[:2 * level]


@given(points, st.integers(min_value=1, max_value=8))
def test_parent_contains_child_bounds(p, height):
    grid = Grid(BOX, height)
    gid = encode(p, grid)
    lon0, lat0, lon1, lat1 = cell_bounds(gid, grid)
    plon0, plat0, plon1, plat1 = cell_bounds(ancestor_at(gid, gid.level - 1), grid)
    assert plon0 <= lon0 and plat0 <= lat0
    assert lon1 <= plon1 and lat1 <= plat1


@given(points, heights)
@settings(max_examples=50)
def test_children_partition_parent(p, height):
    grid = Grid(BOX, height + 1)
    parent = ancestor_at(encode(p, grid), height)
    kids = children_of(parent, grid.height)
    widths = {round(cell_bounds(k, grid)[2] - cell_bounds(k, grid)[0], 12) for k in kids}
    assert len(widths) == 1
    assert {ancestor_at(k, height) for k in kids} == {parent}


def test_meters_per_degree_value():
    assert math.isclose(METERS_PER_DEGREE, 111_194.926, rel_tol=1e-6)
