"""Synthetic geo-tagged corpora: Zipf background plus planted patterns.

Background records get uniform positions and Zipf-distributed words;
each planted pattern claims a fixed number of records whose positions
fall inside its target cell and whose wordsets contain the planted
words on top of background noise. Generation is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigInvalid
from .grid import GeoPoint, Gid, Grid, cell_bounds
from .text import GeoRecord


@dataclass(frozen=True)
class PlantedPattern:
    words: tuple[int, ...]
    gid: Gid
    count: int


@dataclass(frozen=True)
class GenConfig:
    n_records: int
    vocab_size: int
    zipf_exponent: float = 1.1
    words_per_record_mean: float = 15.0
    planted: tuple[PlantedPattern, ...] = field(default_factory=tuple)
    seed: int = 0


def word_name(wid: int) -> str:
    """Stable printable form of a synthetic word id."""
    return f"w{wid:05d}"


def _validate(cfg: GenConfig, grid: Grid) -> None:
    if cfg.n_records < 0:
        raise ConfigInvalid(f"n_records must be >= 0, got {cfg.n_records}")
    if cfg.vocab_size < 1:
        raise ConfigInvalid(f"vocab_size must be >= 1, got {cfg.vocab_size}")
    if cfg.seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {cfg.seed}")
    # A NaN fails both range tests below too.
    if not 0 < cfg.words_per_record_mean < math.inf:
        raise ConfigInvalid("words_per_record_mean must be positive and finite")
    if not 0 <= cfg.zipf_exponent < math.inf:
        raise ConfigInvalid("zipf_exponent must be finite and >= 0")
    total = 0
    for pat in cfg.planted:
        if not pat.words:
            raise ConfigInvalid("planted pattern has no words")
        if any(w < 0 or w >= cfg.vocab_size for w in pat.words):
            raise ConfigInvalid(f"planted words {pat.words} outside vocabulary")
        if pat.count < 0:
            raise ConfigInvalid("planted count must be >= 0")
        if pat.gid.level > grid.height:
            raise ConfigInvalid(
                f"planted cell level {pat.gid.level} exceeds grid height {grid.height}")
        total += pat.count
    if total > cfg.n_records:
        raise ConfigInvalid(
            f"planted records ({total}) exceed n_records ({cfg.n_records})")


def generate(cfg: GenConfig, grid: Grid) -> list[GeoRecord]:
    """Build the full record list in memory. Deterministic for a given seed."""
    import numpy as np  # here, so importing the package does not load numpy

    _validate(cfg, grid)
    n = cfg.n_records
    rng = np.random.default_rng(cfg.seed)
    box = grid.bbox

    lons = rng.uniform(box.min_lon, box.max_lon, n)
    lats = rng.uniform(box.min_lat, box.max_lat, n)

    # Zipf over ranks 1..V; word id == rank - 1, so low ids are popular.
    ranks = np.arange(1, cfg.vocab_size + 1, dtype=np.float64)
    weights = np.power(ranks, -cfg.zipf_exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    ks = rng.poisson(cfg.words_per_record_mean, n)
    draws = np.searchsorted(cdf, rng.random(int(ks.sum())))
    offsets = np.concatenate(([0], np.cumsum(ks)))

    wordsets = [frozenset(draws[offsets[i]:offsets[i + 1]].tolist())
                for i in range(n)]

    # Assign planted roles to a seeded shuffle of record slots, then
    # overwrite those slots' positions and extend their wordsets.
    slots = rng.permutation(n)
    next_slot = 0
    for pat in cfg.planted:
        lon0, lat0, lon1, lat1 = cell_bounds(pat.gid, grid)
        take = slots[next_slot:next_slot + pat.count]
        next_slot += pat.count
        plat = rng.uniform(lat0, lat1, pat.count)
        plon = rng.uniform(lon0, lon1, pat.count)
        for j, i in enumerate(take):
            lons[i] = plon[j]
            lats[i] = plat[j]
            wordsets[i] = wordsets[i] | set(pat.words)

    return [GeoRecord(f"r{i:06d}", wordsets[i], GeoPoint(float(lons[i]), float(lats[i])))
            for i in range(n)]
