"""Multi-level mining over the cell-annotated prefix tree, in rank space.

As in the paper's SFP-growth, the SFP-tree is built once, and each
frequent (word, cell) gets exactly its non-spatial conditional base,
with no record rescans; only the miner inside a base is a vertical
(Eclat) search, one bit per record, in ``fptree``. Ranks are visited in
reverse global order, each once for all levels. A rank's run of the
tree's (word, cell) header, in leaf order, makes the word's one vertical
base; quad-tree cells nest, so any cell is one leaf-code range of both.
Every pattern is one int row (see ``row_layout``), appended at the cell
where it reached the threshold, with its exact per-cell support, to the
list of its (level, cell, size); ``canonical`` sorts each list, plain
ints, into a block of the ``Patterns`` result.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

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


CellRows = dict[tuple[int, int], list[list[int]]]  # (level, code) -> rows per size, 1 first


def row_layout(words: WordTable) -> tuple[int, int]:
    """``(width, cbits)`` of a pattern row, ``packed << cbits | count``:
    ``packed`` holds the pattern's ranks ascending, ``width`` bits each,
    the smallest most significant, and ``cbits`` bits hold the largest
    global count, which bounds every count in a cell. So among the rows
    of one (level, cell, size) int order is canonical order."""
    width = (len(words.order) - 1).bit_length()
    cbits = words.counts[words.order[0]].bit_length() if words.order else 0
    return width, cbits


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


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> tuple[CellRows, int]:
    """All spatially frequent rank sets at every level as pattern rows
    (see ``row_layout``), unsorted, in one list per (level, cell, size):
    list ``k`` of cell ``(level, code)`` holds the rows of ``k + 1``
    ranks. Also the number of (word, leaf cell) header entries.

    Visits each rank once: its header run, in leaf order, is one
    contiguous range per cell at any level, whose prefix sums give the
    cell's total and its records, a bit range of the word's one vertical
    base. Cells are searched from the root down. A rank is the largest
    of its patterns, as its base holds the ranks above its nodes, so its
    own slot is the least significant and growth adds slots above it.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    if not tree.finalized:
        raise RuntimeError("the tree is read only after finalize()")
    start, parent_of = tree.head_start, tree.parent_of
    width, cbits = row_layout(tree.words)
    floor = min(sigmas)
    # A cell's total bounds its children's, so below the smallest sigma
    # of the levels under it no cell inside it is frequent.
    reach = [min(sigmas[level + 1:]) for level in range(height)]
    out: CellRows = {}
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
                lists = out.setdefault((level, code), [[]])
                lists[0].append(r << cbits | total)
                if base:
                    cond = cell_base(base, acc[lo], acc[hi], sigma)
                    if cond:
                        grown = fp_growth(cond, sigma, r << cbits, cbits + width, width)
                        for k, rows in enumerate(grown, 1):
                            if k < len(lists):
                                lists[k] += rows
                            else:
                                lists.append(rows)
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
    """Patterns in canonical order, kept as ``(level, code, size, rows)``
    blocks, one per (level, cell, size), each ``rows`` a sorted list of
    pattern rows (see ``row_layout``), plus the ``WordTable`` naming
    their ranks. Each pattern is built when read, a slice as a list, and
    in-order iteration shares one ``Gid`` per cell."""

    def __init__(self, blocks: list[tuple[int, int, int, list[int]]], words: WordTable):
        self.blocks = blocks
        self.words = words
        self.width, self.cbits = row_layout(words)
        self.ends = list(accumulate([len(rows) for *_, rows in blocks]))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def decode(self, size: int, rows: list[int],
               names: Sequence) -> Iterator[tuple[tuple, int]]:
        """Each row of ``size`` ranks as the tuple of its ranks, ascending,
        looked up in ``names``, and its count; decoded slot by slot."""
        mask, low = (1 << self.width) - 1, (1 << self.cbits) - 1
        shifts = [self.cbits + self.width * k for k in reversed(range(size))]
        slots = [[names[row >> shift & mask] for row in rows] for shift in shifts]
        return zip(zip(*slots), [row & low for row in rows])

    def __getitem__(self, i):
        i = range(len(self))[i]  # negatives wrapped, IndexError past either end
        if isinstance(i, range):
            return [self[j] for j in i]
        b = bisect_right(self.ends, i)
        level, code, size, rows = self.blocks[b]
        at = i - (self.ends[b - 1] if b else 0)
        [(words, count)] = self.decode(size, rows[at:at + 1], self.words.order)
        return SpatialPattern(frozenset(words), Gid(level, code), count)

    def __iter__(self) -> Iterator[SpatialPattern]:
        order, gid = self.words.order, None
        for level, code, size, rows in self.blocks:
            if gid != (level, code):
                gid = Gid(level, code)
            for words, count in self.decode(size, rows, order):
                yield SpatialPattern(frozenset(words), gid, count)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Patterns)) else NotImplemented


def canonical(raw: CellRows, words: WordTable) -> Patterns:
    """``mine_tree``'s lists, each sorted in place, as the blocks of a
    ``Patterns`` in canonical order: level descending, then cell, size
    and ranks."""
    blocks = []
    for level, code in sorted(raw, key=lambda cell: (-cell[0], cell[1])):
        for size, rows in enumerate(raw[level, code], 1):
            rows.sort()
            blocks.append((level, code, size, rows))
    return Patterns(blocks, words)


def patterns_to_dict(patterns: Iterable[SpatialPattern]) -> dict[tuple[frozenset[int], int, int], int]:
    """Key patterns as (wordset, level, code) for order-free comparison."""
    out = {}
    for p in patterns:
        out[(p.words, p.gid.level, p.gid.code)] = p.count
    return out
