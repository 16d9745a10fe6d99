"""Hierarchical z-order grid over a geographic bounding box.

The box is split recursively into quadrants. A cell is addressed by a
``Gid``: its hierarchy level plus an integer code carrying two bits per
level, most significant pair first. At each level the quadrant digit is
``(y_bit << 1) | x_bit`` with the origin at the box's minimum corner, so
the code of a cell is a prefix of the codes of all cells nested inside
it. Level 0 is the whole box, level ``height`` are the leaf cells.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidLevel, MalformedGid, PointOutOfBounds

MAX_HEIGHT = 31  # leaf codes need 2*height bits; keep them well inside 64-bit range

# Equirectangular scale at the Earth's mean radius, metres per degree.
METERS_PER_DEGREE = 6_371_000.0 * math.pi / 180.0


class GeoPoint(NamedTuple):
    lon: float
    lat: float


class Gid(NamedTuple):
    """Grid cell identifier: hierarchy level and 2*level quadrant bits."""

    level: int
    code: int


ROOT = Gid(0, 0)


@dataclass(frozen=True)
class BoundingBox:
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self):
        edges = (self.min_lon, self.min_lat, self.max_lon, self.max_lat)
        if not all(map(math.isfinite, edges)):
            raise ValueError(f"bounding box edges must be finite, got {self}")
        if not (self.min_lon < self.max_lon and self.min_lat < self.max_lat):
            raise ValueError(f"degenerate bounding box {self}")


@dataclass(frozen=True)
class Grid:
    """A bounding box plus the number of quadtree subdivision levels."""

    bbox: BoundingBox
    height: int

    def __post_init__(self):
        object.__setattr__(self, "height", as_int(self.height, "grid height"))
        if not 0 <= self.height <= MAX_HEIGHT:
            raise ValueError(f"grid height must be in [0, {MAX_HEIGHT}], got {self.height}")


def as_int(value, what: str) -> int:
    """``value`` as an int through ``operator.index``, so that numpy
    integers pass and floats fail; a bool is refused too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _spread_bits(v: int) -> int:
    # Spread the low 31 bits of v so bit k lands at bit 2k.
    v &= 0x7FFFFFFF
    v = (v | v << 16) & 0x0000FFFF0000FFFF
    v = (v | v << 8) & 0x00FF00FF00FF00FF
    v = (v | v << 4) & 0x0F0F0F0F0F0F0F0F
    v = (v | v << 2) & 0x3333333333333333
    v = (v | v << 1) & 0x5555555555555555
    return v


# _spread_bits of every 8-bit value, for grids of height 16 or less.
_SPREAD = [_spread_bits(v) for v in range(256)]


def _compact_bits(v: int) -> int:
    # Inverse of _spread_bits: gather every second bit.
    v &= 0x5555555555555555
    v = (v | v >> 1) & 0x3333333333333333
    v = (v | v >> 2) & 0x0F0F0F0F0F0F0F0F
    v = (v | v >> 4) & 0x00FF00FF00FF00FF
    v = (v | v >> 8) & 0x0000FFFF0000FFFF
    v = (v | v >> 16) & 0x00000000FFFFFFFF
    return v


def encode(p: GeoPoint, grid: Grid) -> Gid:
    """Leaf cell containing a point.

    Points exactly on the box's maximum edges are clamped into the last
    row/column of cells. Raises PointOutOfBounds for anything outside.
    """
    lon, lat = p
    box = grid.bbox
    if not (box.min_lon <= lon <= box.max_lon and box.min_lat <= lat <= box.max_lat):
        raise PointOutOfBounds(f"point {tuple(p)} outside box {box}")
    height = grid.height
    n = 1 << height
    # Scaling by n / width in one factor would round differently at cell edges.
    ix = min(int((lon - box.min_lon) / (box.max_lon - box.min_lon) * n), n - 1)
    iy = min(int((lat - box.min_lat) / (box.max_lat - box.min_lat) * n), n - 1)
    if height <= 8:
        return Gid(height, _SPREAD[ix] | _SPREAD[iy] << 1)
    if height <= 16:
        return Gid(height, (_SPREAD[ix & 255] | _SPREAD[ix >> 8] << 16)
                   | (_SPREAD[iy & 255] | _SPREAD[iy >> 8] << 16) << 1)
    return Gid(height, _spread_bits(ix) | _spread_bits(iy) << 1)


def choose_height(bbox: BoundingBox, target_cell_meters: float) -> int:
    """Smallest height whose leaf cells are at most ``target_cell_meters`` wide.

    Extents use an equirectangular approximation at the box's centre
    latitude. The result is clamped to [0, MAX_HEIGHT].
    """
    if not target_cell_meters > 0:  # NaN too
        raise ValueError(f"target cell size must be positive, got {target_cell_meters}")
    lat_c = math.radians((bbox.min_lat + bbox.max_lat) / 2.0)
    width_m = (bbox.max_lon - bbox.min_lon) * math.cos(lat_c) * METERS_PER_DEGREE
    height_m = (bbox.max_lat - bbox.min_lat) * METERS_PER_DEGREE
    ratio = max(width_m, height_m) / target_cell_meters
    if ratio <= 1.0:
        return 0
    # The 1e-9 slack keeps exact powers of two from rounding up on float noise.
    # Clamped before ``ceil``, which a ratio past float range would overflow.
    return math.ceil(min(math.log2(ratio), MAX_HEIGHT) - 1e-9)


def gid_str(gid: Gid) -> str:
    """Render a gid as its quadrant bits, two per level; the root is ''."""
    if gid.level == 0:
        return ""
    return format(gid.code, f"0{2 * gid.level}b")


def parse_gid(s: str, height: int) -> Gid:
    """Inverse of gid_str. Raises MalformedGid on anything unparseable."""
    if s == "":
        return ROOT
    if len(s) % 2 != 0:
        raise MalformedGid(f"gid string {s!r} has odd length")
    if set(s) - {"0", "1"}:
        raise MalformedGid(f"gid string {s!r} contains non-binary characters")
    level = len(s) // 2
    if level > height:
        raise MalformedGid(f"gid string {s!r} is deeper than grid height {height}")
    return Gid(level, int(s, 2))


def cell_bounds(gid: Gid, grid: Grid) -> tuple[float, float, float, float]:
    """(min_lon, min_lat, max_lon, max_lat) of a cell at any level."""
    if gid.level > grid.height:
        raise InvalidLevel(f"level {gid.level} exceeds grid height {grid.height}")
    box = grid.bbox
    n = 1 << gid.level
    ix = _compact_bits(gid.code)
    iy = _compact_bits(gid.code >> 1)
    w = (box.max_lon - box.min_lon) / n
    h = (box.max_lat - box.min_lat) / n
    return (box.min_lon + ix * w, box.min_lat + iy * h,
            box.min_lon + (ix + 1) * w, box.min_lat + (iy + 1) * h)
