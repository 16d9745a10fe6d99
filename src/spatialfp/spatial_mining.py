"""Multi-level mining over the cell-annotated prefix tree, in rank space.

As in the paper's SFP-growth, the SFP-tree is built once, and each
frequent (word, cell) gets exactly its non-spatial conditional base,
with no record rescans; only the miner inside a base is a weighted
vertical (Eclat) search, in ``fptree``. Ranks are visited in reverse
global order, each once for all levels. A rank's run of the tree's
(word, cell) header, in leaf order, makes the word's one vertical base;
quad-tree cells nest, so any cell is one leaf-code range of both. Every
pattern is emitted as a raw tuple at the cell where it reached the
threshold, with its exact per-cell support; ``canonical`` sorts the
tuples into the rows of a ``Patterns`` result.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .fptree import cell_base, fp_growth, tree_from_weighted_paths
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


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> tuple[list[RawPattern], int]:
    """All spatially frequent rank sets at every level, unsorted, as
    ``(ranks, level, code, count)`` tuples with the ranks suffix first,
    plus the number of (word, leaf cell) header entries.

    Visits each rank once: its header run, in leaf order, is one
    contiguous range per cell at any level, which gives the cell's total
    through a prefix sum and its bit range in the word's one vertical
    base. Cells are searched from the root down.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    if not tree.finalized:
        raise RuntimeError("the tree is read only after finalize()")
    start, parent_of = tree.head_start, tree.parent_of
    floor = min(sigmas)
    # A cell's total bounds its children's, so below the smallest sigma
    # of the levels under it no cell inside it is frequent.
    reach = [min(sigmas[level + 1:]) for level in range(height)]
    out: list[RawPattern] = []
    header_entries = 0
    for r in range(len(tree.words) - 1, -1, -1):
        run = slice(start[r], start[r + 1])
        leaves, nodes, counts = tree.head_leaf[run], tree.head_node[run], tree.head_count[run]
        if not leaves:
            continue
        # An array: the running sums as int objects would stay spread over
        # the allocator's arenas among the patterns kept, raising the peak.
        acc = array("q", [0])
        acc.extend(accumulate(counts))
        header_entries += len(set(leaves))
        # The rank's one root child, if any, is its largest node: its empty
        # prefix adds nothing to a conditional base.
        top = max(nodes)
        deep = acc[-1]
        if parent_of[top] == 0:
            deep -= sum([c for node, c in zip(nodes, counts) if node == top])
        base = None
        if deep >= floor:  # else no item of the word reaches any sigma
            paths = {node: _prefix_path(tree, node) for node in set(nodes)}
            base = tree_from_weighted_paths([(paths[node], count) for node, count
                                             in zip(nodes, counts)], floor)
        cells = [(0, 0, 0, len(leaves))]  # (level, code, lo, hi) still to visit
        while cells:
            level, code, lo, hi = cells.pop()
            total = acc[hi] - acc[lo]
            sigma = sigmas[level]
            if total >= sigma:
                out.append(((r,), level, code, total))
                if base:
                    cond = cell_base(base, lo, hi, sigma)
                    if cond:
                        out.extend([((r, *items), level, code, count)
                                    for items, count in fp_growth(cond, sigma)])
            if level < height and total >= reach[level]:
                bound, shift = reach[level], 2 * (height - level - 1)
                while lo < hi:  # each child holding an entry
                    child = leaves[lo] >> shift
                    cut = bisect_left(leaves, (child + 1) << shift, lo, hi)
                    if acc[cut] - acc[lo] >= bound:
                        cells.append((level + 1, child, lo, cut))
                    lo = cut
    return out, header_entries


class Patterns(Sequence[SpatialPattern]):
    """Patterns in canonical order, kept as sorted ``(-level, code, size,
    ranks, count)`` rows plus the ``WordTable`` naming their ranks; each is
    built when read, and in-order iteration shares one ``Gid`` per cell."""

    def __init__(self, rows: list[tuple[int, int, int, tuple[int, ...], int]],
                 words: WordTable):
        self.rows = rows
        self.words = words

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Patterns(self.rows[i], self.words)
        return next(iter(Patterns([self.rows[i]], self.words)))

    def __iter__(self):
        order, gid = self.words.order, None
        for neg_level, code, _, ranks, count in self.rows:
            if gid is None or code != gid.code or -neg_level != gid.level:
                gid = Gid(-neg_level, code)
            yield SpatialPattern(frozenset([order[r] for r in ranks]), gid, count)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Patterns)) else NotImplemented


def canonical(raw: list[RawPattern], words: WordTable) -> Patterns:
    """Raw tuples, ranks in any order, re-keyed in place and sorted into
    canonical order: level descending, then cell, size and ranks."""
    for i, (ranks, level, code, count) in enumerate(raw):
        raw[i] = (-level, code, len(ranks), tuple(sorted(ranks)), count)
    raw.sort()
    return Patterns(raw, words)


def patterns_to_dict(patterns: Iterable[SpatialPattern]) -> dict[tuple[frozenset[int], int, int], int]:
    """Key patterns as (wordset, level, code) for order-free comparison."""
    out = {}
    for p in patterns:
        out[(p.words, p.gid.level, p.gid.code)] = p.count
    return out
