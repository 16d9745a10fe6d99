"""Multi-level mining over the cell-annotated prefix tree, in rank space.

Ranks are visited in reverse global order, each once for all levels. A
rank's node entries, sorted by leaf cell, are sliced per (level, cell);
for every (rank, cell) pair meeting that level's sigma the slice becomes
a non-spatial conditional base, which fp_growth mines. Every pattern is
emitted as a raw tuple at the cell where it reached the threshold, with
its exact per-cell support; ``canonical`` sorts the tuples into patterns.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .fptree import fp_growth, tree_from_weighted_paths
from .grid import Gid
from .spatial_tree import SpatialTree, WordTable


class SpatialPattern(NamedTuple):
    """A wordset frequent within one grid cell."""

    words: frozenset[int]
    gid: Gid
    count: int


def expand_sigmas(sigma: int | Sequence[int], height: int) -> list[int]:
    """Normalize sigma to a per-level list indexed 0 (root) .. height (leaf)."""
    if isinstance(sigma, int):
        sigmas = [sigma] * (height + 1)
    else:
        sigmas = list(sigma)
        if len(sigmas) == 1:
            sigmas = sigmas * (height + 1)
        elif len(sigmas) != height + 1:
            raise ValueError(
                f"need one sigma or {height + 1} per-level values, got {len(sigmas)}")
    if any(s < 1 for s in sigmas):
        raise ValueError("every sigma must be >= 1")
    return sigmas


RawPattern = tuple[tuple[int, ...], int, int, int]  # (ranks, level, code, count)


def _prefix_path(tree: SpatialTree, node: int) -> tuple[int, ...]:
    """The ranks above ``node``, root end first."""
    rank_of, parent_of = tree.rank_of, tree.parent_of
    path: list[int] = []
    up = parent_of[node]
    while up:
        path.append(rank_of[up])
        up = parent_of[up]
    path.reverse()
    return tuple(path)


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> list[RawPattern]:
    """All spatially frequent rank sets at every level, unsorted, as
    ``(ranks, level, code, count)`` tuples with the ranks suffix first.

    Visits each rank once: its nodes' prefix paths are walked once, and
    their (leaf, node, count) entries are sorted by leaf, so that the
    entries of any cell at any level are one contiguous slice.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    if not tree.finalized:
        raise RuntimeError("the tree is read only after finalize()")
    start, cell_leaf, cell_count = tree.cell_start, tree.cell_leaf, tree.cell_count
    order = tree.words.order
    out: list[RawPattern] = []
    for r in range(len(order) - 1, -1, -1):
        # Nodes right under the root have an empty prefix and add nothing
        # to a conditional base.
        paths: list[tuple[int, ...]] = []
        entries: list[tuple[int, int, int]] = []
        for node in tree.by_rank[r]:
            path = _prefix_path(tree, node)
            if path:
                i = len(paths)
                paths.append(path)
                lo, hi = start[node], start[node + 1]
                entries.extend(zip(cell_leaf[lo:hi], repeat(i), cell_count[lo:hi]))
        entries.sort()
        leaves = [e[0] for e in entries]
        totals = tree.header.cells_of(order[r])
        for level in range(height, -1, -1):
            if level < height:
                folded: dict[int, int] = {}
                for cell, count in totals.items():
                    if cell >> 2 in folded:
                        folded[cell >> 2] += count
                    else:
                        folded[cell >> 2] = count
                totals = folded
            shift = 2 * (height - level)
            sigma = sigmas[level]
            for anc, total in totals.items():
                if total < sigma:
                    continue
                out.append(((r,), level, anc, total))
                lo = bisect_left(leaves, anc << shift)
                hi = bisect_left(leaves, (anc + 1) << shift, lo)
                weights: dict[int, int] = {}
                for _, i, count in entries[lo:hi]:
                    if i in weights:
                        weights[i] += count
                    else:
                        weights[i] = count
                cond = tree_from_weighted_paths(
                    [(paths[i], weight) for i, weight in weights.items()], sigma)
                if cond:
                    for itemset, count in fp_growth(cond, sigma).items():
                        out.append(((r, *itemset), level, anc, count))
    return out


def canonical(raw: list[RawPattern], words: WordTable) -> list[SpatialPattern]:
    """Raw tuples, ranks in any order, turned in place into patterns in
    canonical order: level descending, then cell, size and ranks. The
    patterns of one cell share one ``Gid``."""
    for i, (ranks, level, code, count) in enumerate(raw):
        raw[i] = (-level, code, len(ranks), tuple(sorted(ranks)), count)
    raw.sort()
    order, gid = words.order, None
    for i, (neg_level, code, _, ranks, count) in enumerate(raw):
        if gid is None or code != gid.code or -neg_level != gid.level:
            gid = Gid(-neg_level, code)
        raw[i] = SpatialPattern(frozenset([order[r] for r in ranks]), gid, count)
    return raw


def patterns_to_dict(patterns: Iterable[SpatialPattern]) -> dict[tuple[frozenset[int], int, int], int]:
    """Key patterns as (wordset, level, code) for order-free comparison."""
    out = {}
    for p in patterns:
        out[(p.words, p.gid.level, p.gid.code)] = p.count
    return out
