"""Multi-level SFP-growth over the cell-annotated prefix tree, in rank space.

As in the paper, the SFP-tree is built once, and each frequent (word,
cell) gets exactly its non-spatial conditional base, with no record
rescans; only the miner inside a base is a vertical search (Eclat, Zaki,
TKDE 2000) over int tidsets, one bit per record. A rank's run of the
tree's (word, cell) header, in leaf order, makes the word's one base;
quad-tree cells nest, so any cell is one range of the run and one bit
range of the base. The frequent cells and the bases are numpy array
operations over all ranks; Python keeps only the per-cell slice of a
base and the growth inside it. Siblings stay in descending item order,
set once when a base is built, so that each extension adds an item
smaller than those it joins: growth packs an itemset into one int by
placing each new item one slot above the last, and sorts nothing.
``canonical`` sorts each (level, cell, size) list of pattern rows (see
``row_layout``) into a block of the ``Patterns`` result.

The benchmark's tracer times base builds and growth by replacing
``tree_from_weighted_paths`` and ``fp_growth`` among this module's
attributes, so they keep the FP-tree miner's names (ROADMAP item 1) and
are looked up as globals where they are called.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .grid import Gid, as_int
from .spatial_tree import SpatialTree, WordTable


class SpatialPattern(NamedTuple):
    """A wordset frequent within one grid cell."""

    words: frozenset[int]
    gid: Gid
    count: int


def expand_sigmas(sigma: int | Sequence[int], height: int) -> list[int]:
    """Normalize sigma to a per-level list indexed 0 (root) .. height (leaf)."""
    try:
        sigmas = list(sigma)
    except TypeError:  # one value for every level
        sigmas = [sigma]
    sigmas = [as_int(s, "sigma") for s in sigmas]
    if len(sigmas) == 1:
        sigmas *= height + 1
    elif len(sigmas) != height + 1:
        raise ValueError(f"need one sigma or {height + 1} per-level values, got {len(sigmas)}")
    if any(s < 1 for s in sigmas):
        raise ValueError("every sigma must be >= 1")
    return sigmas


CellRows = dict[tuple[int, int], list[list[int]]]  # (level, code) -> rows per size, 1 first
Base = list[tuple[int, int, int]]  # (item, tidset, support), descending item


def row_layout(words: WordTable) -> tuple[int, int]:
    """``(width, cbits)`` of a pattern row, ``packed << cbits | count``:
    ``packed`` holds the pattern's ranks ascending, ``width`` bits each,
    the smallest most significant, and ``cbits`` bits hold the largest
    global count, which bounds every count in a cell. So among the rows
    of one (level, cell, size) int order is canonical order."""
    width = (len(words.order) - 1).bit_length()
    cbits = words.counts[words.order[0]].bit_length() if words.order else 0
    return width, cbits


# About this many (entry, item) pairs are expanded at once when bases are built:
# smaller chunks keep the temporaries small at no cost in time.
CHUNK_PAIRS = 1 << 14


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> tuple[CellRows, int]:
    """All spatially frequent rank sets at every level as pattern rows
    (see ``row_layout``), unsorted, in one list per (level, cell, size):
    list ``k`` of cell ``(level, code)`` holds the rows of ``k + 1``
    ranks. Also the number of (word, leaf cell) header entries.

    Each frequent (rank, cell) from ``frequent_cells`` emits its row and
    grows its slice of the rank's base from ``conditional_bases``, which
    builds the bases of those ranks only. A
    rank is the largest of its patterns, as its base holds the ranks
    above its nodes, so its own slot is the least significant and growth
    adds slots above it.
    """
    cells, header_entries = frequent_cells(tree, sigmas)
    width, cbits = row_layout(tree.words)
    out: CellRows = {}
    bases = conditional_bases(tree, min(sigmas), cells[0])  # ranks of the frequent cells
    past = (len(tree.words), None)  # after every rank
    r_base, base = next(bases, past)
    for r, level, code, lo, hi in zip(*cells):
        while r_base < r:
            r_base, base = next(bases, past)
        lists = out.setdefault((level, code), [[]])
        lists[0].append(r << cbits | hi - lo)
        if r_base == r and base:
            sigma = sigmas[level]
            cond = cell_base(base, lo, hi, sigma)
            if cond:
                grown = fp_growth(cond, sigma, r << cbits, cbits + width, width)
                for k, rows in enumerate(grown, 1):
                    if k < len(lists):
                        lists[k] += rows
                    else:
                        lists.append(rows)
    return out, header_entries


def frequent_cells(tree: SpatialTree, sigmas: Sequence[int],
                   ) -> tuple[tuple[list[int], ...], int]:
    """Every (rank, cell) whose count reaches its level's sigma, as the
    columns ``(rank, level, code, lo, hi)`` in ascending rank, where
    ``[lo, hi)`` are the cell's records as bits of the rank's base; and
    the number of (word, leaf cell) header entries.

    A rank's header run, in leaf order, is one contiguous range per cell
    at any level, so one split of all runs per level finds every cell.
    """
    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    start, leaf = tree.head_start, tree.head_leaf
    n = len(leaf)
    if not n:
        return ([],) * 5, 0
    import numpy as np

    acc = np.concatenate(([0], np.cumsum(tree.head_count)))  # records before each entry
    # A run of entries starts where the rank or the cell changes; cells
    # nest, so each level keeps the cuts of the one above it.
    cut = np.zeros(n, bool)
    cut[start[start < n]] = True
    found = []
    for level in range(height + 1):
        shift = 2 * (height - level)
        code = leaf >> shift if shift else leaf
        cut[1:] |= code[1:] != code[:-1]
        lo = np.flatnonzero(cut)
        total = acc[lo]  # turned into each run's records in place
        total[:-1] = total[1:] - total[:-1]
        total[-1] = acc[n] - total[-1]
        keep = total >= sigmas[level]
        found.append((np.full(keep.sum(), level, np.int32), code[lo[keep]], lo[keep], total[keep]))
    header_entries = len(keep)
    level, code, lo, total = (np.concatenate(column) for column in zip(*found))
    rank = np.searchsorted(start, lo, side="right") - 1
    order = np.argsort(rank)
    rank, level, code, lo, total = rank[order], level[order], code[order], lo[order], total[order]
    lo = acc[lo] - acc[start[rank]]  # bits count from the rank's first record
    return tuple(column.tolist() for column in (rank, level, code, lo, lo + total)), header_entries


def conditional_bases(tree: SpatialTree, floor: int,
                      ranks: Sequence[int]) -> Iterator[tuple[int, Base]]:
    """``(rank, base)`` in ascending rank, for each of ``ranks`` (repeats
    allowed) whose records below its root child reach ``floor``: the base
    holds each item, a rank above the word's nodes, with its records'
    bits, and drops the items whose support misses ``floor``. The bits of
    a run of ranks are set at once, from one expansion of their entries'
    ancestors, into one packed buffer. Each (entry, item) pair sets its
    entry's records as one range of bits, so the temporaries grow with the
    pairs, never with the bits, and a rank's pairs are never split between
    runs."""
    import numpy as np

    start, node, count = tree.head_start, tree.head_node, tree.head_count
    pairs = tree.depth_of[node]  # (entry, item) pairs of each entry, none at a root child
    deep = np.where(pairs > 0, count, 0)

    def per_rank(x):
        sums = np.zeros(len(x) + 1, np.int64)
        np.cumsum(x, out=sums[1:])
        return np.diff(sums[start])

    build = np.unique(np.asarray(ranks, np.int64))
    build = build[per_rank(deep)[build] >= floor]
    load = per_rank(pairs)[build].tolist()
    del pairs, deep
    # Made once ``pairs`` and ``deep`` are freed, it can reuse their
    # memory, which lowers the peak.
    acc = np.concatenate(([0], np.cumsum(count)))
    chunk, held = [], 0
    for i, r in enumerate(build.tolist()):
        chunk.append(r)
        held += load[i]
        if held >= CHUNK_PAIRS or i == len(load) - 1:
            yield from _chunk_bases(np, chunk, start, node, count, tree.parent_of,
                                    tree.rank_of, acc, floor)
            chunk, held = [], 0


def _chunk_bases(np, ranks, start, node, count, parent, rank_of, acc, floor):
    """The bases of ``ranks``, ascending, as ``conditional_bases`` yields
    them. ``parent`` and ``rank_of`` are int32."""
    words = len(start) - 1
    ranks = np.array(ranks)
    first, stop = start[ranks], start[ranks + 1]
    lens = stop - first
    local = np.repeat(np.arange(len(ranks), dtype=np.int32), lens)  # chunk rank of each entry
    entry = np.arange(len(local)) + np.repeat(first - (np.cumsum(lens) - lens), lens)
    bit = acc[entry] - acc[first][local]  # each entry's first bit
    size = (acc[stop] - acc[first] + 7) >> 3  # bytes per tidset of each rank
    records = count[entry]
    # Every (entry, ancestor) pair, all entries walked up one level at a time.
    pe, items = [], []
    at = np.arange(len(entry), dtype=np.int32)
    up = parent[node[entry]]
    while True:
        at, up = at[up != 0], up[up != 0]
        if not len(at):
            break
        pe.append(at)
        items.append(rank_of[up])
        up = parent[up]
    pe, items = np.concatenate(pe), np.concatenate(items)
    # Groups of one (rank, item), items descending within a rank: one
    # sort of int64 keys that carry their pair's entry in the low bits.
    ebits = len(bit).bit_length()
    key = (local[pe].astype(np.int64) * words + (words - 1 - items)) << ebits | pe
    key.sort()
    pe = (key & (1 << ebits) - 1).astype(np.int32)
    key >>= ebits
    weight = records[pe]
    new = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    totals = np.add.reduceat(weight, heads)
    keep = totals >= floor
    group = np.cumsum(new, dtype=np.int32) - 1
    kept = keep[group]
    slot = (np.cumsum(keep, dtype=np.int32) - 1)[group[kept]]  # each kept pair's group
    pe, weight = pe[kept], weight[kept]
    key, totals = key[heads[keep]], totals[keep]
    owner = key // words
    nbytes = size[owner]
    at = np.cumsum(nbytes) - nbytes  # each kept group's first byte in ``buf``
    # A pair sets bits [lo, hi) of ``buf``, one per record of its entry.
    # No two ranges share a whole byte: the whole bytes of each range are
    # marked at both ends and filled by one running sum (mod 256, so an
    # end that meets the next range's start cancels out). The range's bits
    # in lo's byte, and in hi's byte where that is another, are OR'ed in.
    lo = at[slot] * 8 + bit[pe]
    hi = lo + weight
    whole_lo, whole_hi = (lo + 7) >> 3, hi >> 3
    whole = whole_lo < whole_hi
    buf = np.zeros(int(nbytes.sum()) + 1, np.uint8)
    buf[whole_lo[whole]] = 1
    buf[whole_hi[whole]] -= 1
    np.cumsum(buf, dtype=np.uint8, out=buf)
    buf *= 255
    tail = (hi & 7 != 0) & (whole_hi > lo >> 3)
    a = np.concatenate((lo, hi[tail] & ~7))
    b = np.concatenate((np.minimum(hi, (lo | 7) + 1), hi[tail]))
    np.bitwise_or.at(buf, a >> 3, (((1 << (b - a)) - 1) << (a & 7)).astype(np.uint8))
    rows = list(zip((words - 1 - key % words).tolist(), at.tolist(), totals.tolist()))
    cuts = np.searchsorted(owner, np.arange(len(ranks) + 1)).tolist()
    tids = memoryview(buf)
    for i, (r, n) in enumerate(zip(ranks.tolist(), size.tolist())):
        yield r, tree_from_weighted_paths(tids, n, rows[cuts[i]:cuts[i + 1]])


def tree_from_weighted_paths(tids, size: int,
                             rows: Iterable[tuple[int, int, int]]) -> Base:
    """The base whose items are ``rows``, each ``(item, at, support)``
    in descending item order, with the ``size`` bytes of ``tids`` from
    ``at`` on as its tidset, least significant byte first."""
    return [(item, int.from_bytes(tids[at:at + size], "little"), support)
            for item, at, support in rows]


def cell_base(base: Base, lo: int, hi: int, minsup: int) -> Base:
    """The base of records ``[lo, hi)`` of ``base``, renumbered from 0,
    keeping the items whose support there reaches ``minsup``, in order."""
    mask = (1 << (hi - lo)) - 1
    # No item's support in the cell exceeds its support in the base.
    return [(item, bits, support) for item, tids, total in base if total >= minsup
            and (support := (bits := tids >> lo & mask).bit_count()) >= minsup]


def fp_growth(base: Base, minsup: int, key: int, shift: int,
              width: int) -> list[list[int]]:
    """All itemsets with support >= minsup, each joined to the suffix
    ``key`` as one int: its items packed ``width`` bits apart from bit
    ``shift`` up, the smallest item highest, OR'ed with its exact support,
    for which the caller keeps the bits below ``key`` and ``shift`` free.
    List ``k`` holds the itemsets of ``k + 1`` items; each appears once."""
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")
    out: list[list[int]] = []

    def walk(key: int, shift: int, depth: int, siblings: Base) -> None:
        if depth == len(out):
            out.append([])
        rows = out[depth]
        for i, (item, tids, support) in enumerate(siblings):
            grown = item << shift | key
            rows.append(grown | support)
            ext = [(other, both, n) for other, other_tids, _ in siblings[i + 1:]
                   if (n := (both := tids & other_tids).bit_count()) >= minsup]
            if ext:
                walk(grown, shift + width, depth + 1, ext)

    if base:
        walk(key, shift, 0, base)
    return out


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
