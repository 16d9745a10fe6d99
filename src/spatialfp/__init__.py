"""Spatially localized frequent-wordset mining over gridded geo-text data.

Records (id, wordset, position) are bucketed into a hierarchical
z-order grid; the miner reports every wordset whose support within a
single grid cell, at any hierarchy level, reaches the threshold. The
core is a cell-annotated prefix tree built in two passes over one read
of the records plus a growth step that mines, per (word, cell), a
conditional base of weighted prefix paths, with an optional compiled
backend for the hot kernels.
"""

from .datagen import GenConfig, PlantedPattern, generate
from .engine import HAVE_SPEEDUPS, available_backends, default_backend, mine
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
    "HAVE_SPEEDUPS",
    "PlantedPattern",
    "SpatialPattern",
    "Vocabulary",
    "available_backends",
    "choose_height",
    "default_backend",
    "encode",
    "generate",
    "mine",
    "tokenize",
    "__version__",
]
