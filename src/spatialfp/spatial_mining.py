"""Multi-level mining over the cell-annotated prefix tree, in rank space.

As in the paper's SFP-growth, the SFP-tree and its (word, cell) header
are built once, and each frequent (word, cell) gets exactly its
non-spatial conditional base, with no record rescans; only the miner
inside a base is a weighted vertical (Eclat) search, in ``fptree``.
Ranks are visited in reverse global order, each once for all levels. A
rank's node entries, sorted by leaf, make the word's one vertical base;
quad-tree cells nest, so each cell's base is a leaf-code bit range of
it. Every pattern is emitted as a raw tuple at the cell where it reached
the threshold, with its exact per-cell support; ``canonical`` sorts the
tuples into the rows of a ``Patterns`` result.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
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


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> list[RawPattern]:
    """All spatially frequent rank sets at every level, unsorted, as
    ``(ranks, level, code, count)`` tuples with the ranks suffix first.

    Visits each rank once: its nodes' prefix paths are walked once, and
    their (leaf, node, count) entries are sorted by leaf into one
    vertical base, so that the base of any cell at any level is one
    contiguous bit range of it.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    if not tree.finalized:
        raise RuntimeError("the tree is read only after finalize()")
    start, cell_leaf, cell_count = tree.cell_start, tree.cell_leaf, tree.cell_count
    order = tree.words.order
    floor = min(sigmas)
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
        pairs = [(paths[i], count) for _, i, count in entries]
        # Below the floor in all, no item of the word reaches any sigma.
        base = sum([e[2] for e in entries]) >= floor and tree_from_weighted_paths(pairs, floor)
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
                if base:  # a 1-tuple (leaf,) sorts before that leaf's entries
                    cond = cell_base(base, bisect_left(entries, (anc << shift,)),
                                     bisect_left(entries, ((anc + 1) << shift,)), sigma)
                    if cond:
                        out.extend([((r, *items), level, anc, count)
                                    for items, count in fp_growth(cond, sigma)])
    return out


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
