"""End-to-end mining pipeline: pass one, the array-built tree, growth.

Pass two is one call that builds and returns the flat-array
``SpatialTree`` from pass one's columns; ``mine_tree`` emits one matrix
of ranks per pattern size, with level, cell and count columns, which
``canonical`` sorts into the blocks of the ``Patterns`` result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .grid import Grid
from .spatial_mining import Patterns, canonical, expand_sigmas, mine_tree
from .spatial_tree import insert_record, scan_counts
from .text import GeoRecord


def resolve_backend(name: str | None) -> str:
    """The one backend, ``"pure"``, which ``None`` and ``"auto"`` name too."""
    if name in (None, "auto", "pure"):
        return "pure"
    raise ValueError(f"unknown backend {name!r}")


@dataclass
class MineReport:
    """Everything the pipeline learned besides the patterns themselves."""

    backend: str = "pure"
    records: int = 0
    mined: int = 0
    skipped: int = 0
    distinct_words: int = 0
    retained_words: int = 0
    cell_entries: int = 0
    first_scan_ms: float = 0.0
    tree_build_ms: float = 0.0
    growth_ms: float = 0.0
    patterns_by_level: dict[int, int] = field(default_factory=dict)

    @property
    def pattern_count(self) -> int:
        return sum(self.patterns_by_level.values())


def mine(source: Iterable[GeoRecord], sigma: int | Sequence[int], grid: Grid,
         backend: str | None = None,
         after_scan: Callable[[], None] | None = None,
         ) -> tuple[Patterns, MineReport]:
    """Mine a record source, read once; returns sorted patterns plus a report.

    ``source`` is any iterable of records, a one-shot generator included.
    ``sigma`` is a single threshold or a per-level list (root first).
    The word-retention pass uses the smallest level threshold, which
    never drops a word that could still qualify at some level.
    ``after_scan`` runs between the passes; raising there aborts the run.
    """
    sigmas = expand_sigmas(sigma, grid.height)
    report = MineReport(backend=resolve_backend(backend))
    import numpy  # noqa: F401  (the header and the bases use it; imported before any timer)

    t0 = time.perf_counter()
    words, cols, report.records, report.skipped, report.distinct_words = scan_counts(
        source, min(sigmas), grid)
    if after_scan is not None:
        after_scan()
    t1 = time.perf_counter()

    tree = insert_record(words, cols, grid.height)
    del cols  # not read again; freed before growth sets the peak
    t2 = time.perf_counter()
    raw, report.cell_entries = mine_tree(tree, sigmas)
    patterns = canonical(raw, words)
    t3 = time.perf_counter()

    report.mined = report.records - report.skipped
    report.retained_words = len(words)
    report.first_scan_ms = (t1 - t0) * 1000.0
    report.tree_build_ms = (t2 - t1) * 1000.0
    report.growth_ms = (t3 - t2) * 1000.0
    for level, _, _, n in patterns.blocks:
        report.patterns_by_level[level] = report.patterns_by_level.get(level, 0) + n
    return patterns, report
