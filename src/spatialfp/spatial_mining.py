"""Multi-level mining over the cell-annotated prefix tree.

For each hierarchy level from the leaves down to the whole box, leaf
cell counts are aggregated up to that level, words are visited in
reverse global order, and for every (word, cell) pair meeting sigma a
non-spatial conditional tree is extracted and mined with fp_growth.
Every pattern is emitted at the cell where it reached the threshold,
with its exact per-cell support.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import UnknownEntry
from .fptree import FpTree, fp_growth, tree_from_weighted_paths
from .grid import Gid, Grid
from .spatial_tree import CellTable, SpatialNode, SpatialTree, WordTable


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


def level_table(header: CellTable, height: int, level: int,
                sigma: int) -> dict[tuple[int, int], int]:
    """Leaf counts aggregated to ``level``, entries below sigma dropped."""
    shift = 2 * (height - level)
    agg: dict[tuple[int, int], int] = {}
    for wid, cell, count in header.items():
        key = (wid, cell >> shift)
        agg[key] = agg.get(key, 0) + count
    return {k: c for k, c in agg.items() if c >= sigma}


def reverse_entries(table: dict[tuple[int, int], int],
                    words: WordTable) -> list[tuple[int, int, int]]:
    """(wid, code, count) sorted by reverse global order, then code.

    Reverse global order is ascending global frequency with ties on
    descending word id, i.e. the global order walked backwards.
    """
    rank = words.rank
    return sorted(((w, g, c) for (w, g), c in table.items()),
                  key=lambda e: (-rank[e[0]], e[1]))


def _prefix_path(node: SpatialNode) -> list[int]:
    path: list[int] = []
    up = node.parent
    while up is not None and up.wid != -1:
        path.append(up.wid)
        up = up.parent
    path.reverse()
    return path


def cell_conditional_tree(tree: SpatialTree, wid: int, gid: Gid,
                          sigma: int) -> FpTree:
    """Non-spatial conditional tree of ``wid`` restricted to cell ``gid``.

    Each tree node holding ``wid`` contributes its prefix path weighted
    by the node's leaf counts that fall inside ``gid``; words whose
    conditional total misses sigma are pruned.
    """
    if wid not in tree.words:
        raise UnknownEntry(f"word {wid} is not retained in this tree")
    shift = 2 * (tree.height - gid.level)
    paths: list[tuple[list[int], int]] = []
    for node in tree.nodes_of(wid):
        weight = 0
        for cell, count in node.cells.items():
            if cell >> shift == gid.code:
                weight += count
        if weight:
            paths.append((_prefix_path(node), weight))
    return tree_from_weighted_paths(paths, tree.words.rank, sigma)


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> list[SpatialPattern]:
    """All spatially frequent wordsets at every level, canonically sorted.

    Equivalent to composing level_table / reverse_entries /
    cell_conditional_tree per cell, but buckets each word's nodes by
    ancestor cell once per level so node cell tables are scanned once.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    out: list[SpatialPattern] = []
    rank = tree.words.rank
    for level in range(height, -1, -1):
        shift = 2 * (height - level)
        sigma = sigmas[level]
        for wid in reversed(tree.words.order):
            totals: dict[int, int] = {}
            for cell, count in tree.header.cells_of(wid).items():
                anc = cell >> shift
                totals[anc] = totals.get(anc, 0) + count
            buckets: dict[int, list[tuple[SpatialNode, int]]] = {}
            for node in tree.nodes_of(wid):
                per_anc: dict[int, int] = {}
                for cell, count in node.cells.items():
                    anc = cell >> shift
                    per_anc[anc] = per_anc.get(anc, 0) + count
                for anc, weight in per_anc.items():
                    buckets.setdefault(anc, []).append((node, weight))
            for anc in sorted(totals):
                total = totals[anc]
                if total < sigma:
                    continue
                gid = Gid(level, anc)
                out.append(SpatialPattern(frozenset((wid,)), gid, total))
                paths = [(_prefix_path(node), weight)
                         for node, weight in buckets.get(anc, ())]
                cond = tree_from_weighted_paths(paths, rank, sigma)
                if cond:
                    for itemset, count in fp_growth(cond, sigma).items():
                        out.append(SpatialPattern(itemset | {wid}, gid, count))
    out.sort(key=_pattern_key(tree.words))
    return out


def _pattern_key(words: WordTable):
    rank = words.rank

    def key(p: SpatialPattern):
        return (-p.gid.level, p.gid.code, len(p.words),
                tuple(sorted(rank[w] for w in p.words)))

    return key


def sort_patterns(patterns: Iterable[SpatialPattern],
                  words: WordTable) -> list[SpatialPattern]:
    """Level descending, cell ascending, size ascending, then word ranks."""
    return sorted(patterns, key=_pattern_key(words))


def patterns_to_dict(patterns: Iterable[SpatialPattern]) -> dict[tuple[frozenset[int], int, int], int]:
    """Key patterns as (wordset, level, code) for order-free comparison."""
    out = {}
    for p in patterns:
        out[(p.words, p.gid.level, p.gid.code)] = p.count
    return out
