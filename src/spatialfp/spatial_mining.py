"""Multi-level mining over the cell-annotated prefix tree.

Words are visited in reverse global order, each once for all levels.
A word's node entries, sorted by leaf cell, are sliced per (level,
cell); for every (word, cell) pair meeting that level's sigma the slice
becomes a non-spatial conditional base, which fp_growth mines. Every
pattern is emitted at the cell where it reached the threshold, with its
exact per-cell support.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from .errors import UnknownEntry
from .fptree import Base, fp_growth, tree_from_weighted_paths
from .grid import Gid
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


def _prefix_path(node: SpatialNode) -> tuple[int, ...]:
    path: list[int] = []
    up = node.parent
    while up is not None and up.wid != -1:
        path.append(up.wid)
        up = up.parent
    path.reverse()
    return tuple(path)


def cell_conditional_tree(tree: SpatialTree, wid: int, gid: Gid,
                          sigma: int) -> Base:
    """Conditional base of ``wid`` restricted to cell ``gid``.

    Each tree node holding ``wid`` contributes its prefix path weighted
    by the node's leaf counts that fall inside ``gid``; words whose
    conditional total misses sigma are pruned.
    """
    if wid not in tree.words:
        raise UnknownEntry(f"word {wid} is not retained in this tree")
    shift = 2 * (tree.height - gid.level)
    paths: list[tuple[tuple[int, ...], int]] = []
    for node in tree.nodes_of(wid):
        weight = 0
        for cell, count in node.cells.items():
            if cell >> shift == gid.code:
                weight += count
        if weight:
            paths.append((_prefix_path(node), weight))
    return tree_from_weighted_paths(paths, sigma)


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> list[SpatialPattern]:
    """All spatially frequent wordsets at every level, canonically sorted.

    Equivalent to composing level_table / reverse_entries /
    cell_conditional_tree per cell, but visits each word once: its
    nodes' prefix paths are walked once, and their (leaf, node, count)
    entries are sorted by leaf, so that the entries of any cell at any
    level are one contiguous slice of that list.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    out: list[SpatialPattern] = []
    for wid in reversed(tree.words.order):
        # Nodes right under the root have an empty prefix and add nothing
        # to a conditional base.
        paths: list[tuple[int, ...]] = []
        entries: list[tuple[int, int, int]] = []
        for node in tree.nodes_of(wid):
            path = _prefix_path(node)
            if path:
                i = len(paths)
                paths.append(path)
                entries.extend([(cell, i, count) for cell, count in node.cells.items()])
        entries.sort()
        leaves = [e[0] for e in entries]
        totals = tree.header.cells_of(wid)
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
                gid = Gid(level, anc)
                out.append(SpatialPattern(frozenset((wid,)), gid, total))
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
