"""Spatially localized frequent-wordset mining over gridded geo-text data.

Records (id, wordset, position) are bucketed into a hierarchical
z-order grid; the miner reports every wordset whose support within a
single grid cell, at any hierarchy level, reaches the threshold. The
core is a cell-annotated prefix tree, kept as flat arrays and built in
two passes over one read of the records (the second appends the records
in sorted order), plus a growth step that mines, per (word, cell), a
conditional base of weighted prefix paths.
"""

from .datagen import GenConfig, PlantedPattern, generate
from .engine import mine
from .grid import BoundingBox, GeoPoint, Gid, Grid, choose_height, encode
from .spatial_mining import SpatialPattern
from .text import GeoRecord, Vocabulary, tokenize

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "GenConfig",
    "GeoPoint",
    "GeoRecord",
    "Gid",
    "Grid",
    "PlantedPattern",
    "SpatialPattern",
    "Vocabulary",
    "choose_height",
    "encode",
    "generate",
    "mine",
    "tokenize",
    "__version__",
]
