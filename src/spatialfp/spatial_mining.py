"""Multi-level SFP-growth over the cell-annotated prefix tree, in rank space.

As in the paper, the SFP-tree is built once, and each frequent (word,
cell) gets exactly its non-spatial conditional base, with no record
rescans: a rank's run of the tree's (word, cell) header, in leaf order,
makes the word's one base, one bit per record, and as quad-tree cells
nest, any cell is one range of the run and one bit range of the base.
All of it is numpy array operations over every rank and cell at once:
the frequent cells, the bases (each item's bits one row of uint64
words), each cell's window of its items' rows, and the growth inside
the windows, a level-wise vertical search (Eclat, Zaki, TKDE 2000) that
ANDs and popcounts rows in bulk (MAFIA, Burdick et al., ICDE 2001).
Items stay in descending order within a class, set once when a base is
built, so each extension puts an item smaller than those it joins in
front of them, and a pattern's ranks ascend as growth makes them.

The benchmark's tracer times two steps by replacing them among this
module's attributes, so they keep the FP-tree miner's names (ROADMAP
item 1) and are looked up as globals where they are called:
``tree_from_weighted_paths`` takes one chunk of bases to its cells'
rows, and ``fp_growth`` grows one bucket of rows of one width.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .grid import Gid, as_int
from .spatial_tree import SpatialTree, WordTable, _narrow

if TYPE_CHECKING:
    from numpy import ndarray


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


# Per size, 1 first: ``(ranks, level, code, count)``, one pattern per row.
Found = list[tuple["ndarray", "ndarray", "ndarray", "ndarray"]]


class Bases(NamedTuple):
    """The bases of a chunk of ``ranks`` in one buffer of uint64 ``bits``:
    group ``g``, by rank, then item descending, holds item ``item[g]`` of
    rank ``rank[g]``, ``total[g]`` records, as bits from word ``at[g]`` on."""

    ranks: ndarray
    rank: ndarray
    item: ndarray
    at: ndarray
    total: ndarray
    bits: ndarray


# About this many (entry, item) pairs are expanded at once when bases are
# built, and about this many words of candidate rows are ANDed at once in
# growth: smaller chunks keep the temporaries small at no cost in time.
CHUNK_PAIRS = 1 << 14
CHUNK_WORDS = 1 << 17


def mine_tree(tree: SpatialTree, sigmas: Sequence[int]) -> tuple[Found, int]:
    """All spatially frequent rank sets at every level, unsorted, as
    columns per size: entry ``k`` holds the patterns of ``k + 1`` ranks,
    each ``ranks`` row ascending and each column of the narrowest type
    that holds it. Also the number of (word, leaf cell) header entries.

    Each frequent (rank, cell) from ``frequent_cells`` is a pattern, and
    its window of the rank's base from ``conditional_bases`` holds the
    rows of its items; a rank is the largest of its patterns, as its base
    holds the ranks above its nodes. The rows of all cells are grown at
    once, one bucket per window width rounded up to a power of two.
    """
    import numpy as np

    (rank, level, code, lo, hi), header_entries = frequent_cells(tree, sigmas)
    rank = _narrow(np, rank, len(tree.words))
    level = _narrow(np, level, tree.height)
    code = _narrow(np, code, (1 << 2 * tree.height) - 1)
    sigma = np.asarray(sigmas)[level]
    top = int((hi - lo).max(initial=0))  # no count in a cell exceeds its word's
    found = {0: [(rank[:, None], np.arange(len(rank)), hi - lo)]}  # (ranks, cell, count) parts
    buckets: dict[int, list] = {}
    for bases in conditional_bases(tree, min(sigmas), rank):
        a = int(np.searchsorted(rank, bases.ranks[0]))
        b = int(np.searchsorted(rank, bases.ranks[-1], side="right"))
        members = tree_from_weighted_paths(bases, rank[a:b], lo[a:b], hi[a:b], sigma[a:b])
        for width, (cell, ranks, count, rows) in members.items():
            buckets.setdefault(width, []).append(
                (_narrow(np, cell + a, len(rank)), ranks, _narrow(np, count, top), rows))
    for width in sorted(buckets):
        cell, ranks, count, rows = (np.concatenate(c) for c in zip(*buckets.pop(width)))
        for k, part in enumerate([(ranks, cell, count), *fp_growth(rows, ranks, cell, sigma)], 1):
            found.setdefault(k, []).append(part)
    out = []
    for k in range(len(found)):
        ranks, cell, count = (np.concatenate(c) for c in zip(*found[k]))
        out.append((ranks, level[cell], code[cell], _narrow(np, count, top)))
    return out, header_entries


def frequent_cells(tree: SpatialTree, sigmas: Sequence[int]) -> tuple[tuple[ndarray, ...], int]:
    """Every (rank, cell) whose count reaches its level's sigma, as the
    columns ``(rank, level, code, lo, hi)`` in ascending rank, where
    ``[lo, hi)`` are the cell's records as bits of the rank's base; and
    the number of (word, leaf cell) header entries.

    A rank's header run, in leaf order, is one contiguous range per cell
    at any level, so one split of all runs per level finds every cell.
    """
    import numpy as np

    height = tree.height
    if len(sigmas) != height + 1:
        raise ValueError(f"need {height + 1} per-level sigmas, got {len(sigmas)}")
    start, leaf = tree.head_start, tree.head_leaf
    n = len(leaf)
    if not n:
        return (np.zeros(0, np.int64),) * 5, 0
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
    return (rank, level, code, lo, lo + total), header_entries


def conditional_bases(tree: SpatialTree, floor: int, ranks: Sequence[int]) -> Iterator[Bases]:
    """The bases, in chunks of ascending ranks, of each of ``ranks``
    (repeats allowed) whose records below its root child reach ``floor``:
    a base holds each item, a rank above the word's nodes, with its
    records' bits, and drops the items whose support misses ``floor``.
    The bits of a chunk are set at once, from one expansion of its
    entries' ancestors, into one packed buffer. Each (entry, item) pair
    sets its entry's records as one range of bits, so the temporaries grow
    with the pairs, never with the bits, and a rank's pairs are never
    split between chunks."""
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
            yield _chunk_bases(np, chunk, start, node, count, tree.parent_of,
                               tree.rank_of, acc, floor)
            chunk, held = [], 0


def _chunk_bases(np, ranks, start, node, count, parent, rank_of, acc, floor) -> Bases:
    """The bases of ``ranks``, ascending, as ``conditional_bases`` yields
    them. ``parent`` and ``rank_of`` are int32."""
    words = len(start) - 1
    ranks = np.array(ranks)
    first, stop = start[ranks], start[ranks + 1]
    lens = stop - first
    local = np.repeat(np.arange(len(ranks), dtype=np.int32), lens)  # chunk rank of each entry
    entry = np.arange(len(local)) + np.repeat(first - (np.cumsum(lens) - lens), lens)
    bit = acc[entry] - acc[first][local]  # each entry's first bit
    size = ((acc[stop] - acc[first] + 63) >> 6) << 3  # bytes per tidset of each rank, whole words
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
    buf = np.zeros(int(nbytes.sum()) + 8, np.uint8)
    buf[whole_lo[whole]] = 1
    buf[whole_hi[whole]] -= 1
    np.cumsum(buf, dtype=np.uint8, out=buf)
    buf *= 255
    tail = (hi & 7 != 0) & (whole_hi > lo >> 3)
    a = np.concatenate((lo, hi[tail] & ~7))
    b = np.concatenate((np.minimum(hi, (lo | 7) + 1), hi[tail]))
    np.bitwise_or.at(buf, a >> 3, (((1 << (b - a)) - 1) << (a & 7)).astype(np.uint8))
    return Bases(ranks, ranks[owner], words - 1 - key % words, at >> 3, totals, buf.view("<u8"))


def tree_from_weighted_paths(bases: Bases, rank: ndarray, lo: ndarray, hi: ndarray,
                             sigma: ndarray) -> dict[int, tuple[ndarray, ...]]:
    """The members of the cells ``(rank, lo, hi)`` of ``bases``' ranks,
    as ``{width: (cell, ranks, count, rows)}``, one bucket per window
    width rounded up to a power of two. A member is an item whose total
    in the base and count in cell ``i``'s records ``[lo, hi)`` reach
    ``sigma[i]``; ``ranks`` is ``(item, rank)`` and ``rows`` the words
    from ``lo >> 6`` on, the bits outside the cell masked off. A cell's
    members are contiguous, items descending."""
    import numpy as np

    first = np.searchsorted(bases.rank, rank)
    n = np.searchsorted(bases.rank, rank, side="right") - first
    cell = np.repeat(np.arange(len(rank)), n)
    group = np.arange(len(cell)) + np.repeat(first - (np.cumsum(n) - n), n)
    keep = bases.total[group] >= sigma[cell]
    cell, group = cell[keep], group[keep]
    if not len(cell):
        return {}
    # Each (cell, item) pair's window of words, laid end to end.
    w0 = lo[cell] >> 6
    width = ((hi[cell] + 63) >> 6) - w0
    ends = np.cumsum(width)
    starts = ends - width
    win = bases.bits[np.arange(ends[-1]) + np.repeat(bases.at[group] + w0 - starts, width)]
    ones = ~np.uint64(0)
    win[starts] &= ones << (lo[cell] & 63).astype(np.uint64)
    tail = (hi[cell] & 63).astype(np.uint64)
    win[ends - 1] &= np.where(tail > 0, ~(ones << tail), ones)
    count = np.add.reduceat(np.bitwise_count(win), starts, dtype=np.int64)
    keep = np.flatnonzero(count >= sigma[cell])
    cell, group, count, width, starts = (c[keep] for c in (cell, group, count, width, starts))
    bucket = 1 << np.frexp(width - 1)[1]  # exponents of zero and one are 0 and 1
    out = {}
    for w in np.unique(bucket).tolist():
        sel = np.flatnonzero(bucket == w)
        col = np.arange(w)
        rows = win[np.minimum(starts[sel, None] + col, len(win) - 1)]
        rows[col >= width[sel, None]] = 0
        ranks = np.stack((bases.item[group[sel]].astype(rank.dtype), rank[cell[sel]]), 1)
        out[w] = (cell[sel], ranks, count[sel], rows)
    return out


def fp_growth(rows: ndarray, ranks: ndarray, cell: ndarray,
              minsup: ndarray) -> list[tuple[ndarray, ndarray, ndarray]]:
    """The patterns grown from one bucket of members, level by level, as
    ``(ranks, cell, count)`` per size. Member ``i`` is the pattern
    ``ranks[i]`` of cell ``cell[i]``, ``rows[i]`` its records there. A
    class's members are contiguous: a class is a cell at first, then a
    parent. Members ``a < b`` of a class make ``b``'s first rank plus
    ``a``'s ranks, in class ``a``, kept if its count reaches ``minsup``
    of its cell. Candidates are made ``CHUNK_WORDS`` words at a time."""
    import numpy as np

    if minsup.min(initial=1) < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup.min()}")
    out, cls, step = [], cell, max(CHUNK_WORDS // rows.shape[1], 1)
    while len(rows) > 1:
        last = np.ones(len(cls), bool)
        last[:-1] = cls[1:] != cls[:-1]
        pairs = np.flatnonzero(last)[np.cumsum(last) - last] - np.arange(len(cls))  # b per a
        cum = np.cumsum(pairs)
        kept = []
        for p in range(0, int(cum[-1]), step):
            p = np.arange(p, min(p + step, int(cum[-1])))
            a = np.searchsorted(cum, p, side="right")
            b = a + 1 + p - (cum[a] - pairs[a])
            both = rows[a]
            both &= rows[b]
            count = np.bitwise_count(both).sum(1)
            del both  # before the next chunk's is made
            keep = np.flatnonzero(count >= minsup[cell[a]])
            kept.append((a[keep], b[keep], _narrow(np, count[keep], 64 * rows.shape[1])))
        a, b, count = (np.concatenate(c) for c in zip(*kept)) if kept else ((),) * 3
        if not len(a):
            break
        out.append((np.concatenate((ranks[b, :1], ranks[a]), 1), cell[a], count))
        # Only a pattern with another in its class grows on; its rows are
        # made again into one array, a chunk at a time.
        paired = np.zeros(len(a), bool)
        paired[1:] = a[1:] == a[:-1]
        paired[:-1] |= paired[1:]
        ranks, cell, _ = (column[paired] for column in out[-1])
        a, b = a[paired], b[paired]
        grown = np.empty((len(a), rows.shape[1]), np.uint64)
        for i in range(0, len(a), step):
            np.take(rows, a[i:i + step], axis=0, out=grown[i:i + step])
            grown[i:i + step] &= rows[b[i:i + step]]
        rows, cls = grown, a
    return out


class Patterns(Sequence[SpatialPattern]):
    """Patterns in canonical order: per size, 1 first, a ``(ranks,
    count)`` pair of arrays with one ascending row of ranks per pattern,
    and ``(level, code, size, n)`` blocks, each the next ``n`` patterns of
    its size; plus the ``WordTable`` naming the ranks. A pattern is built
    when read, a slice as a list; in-order iteration shares one ``Gid``
    per cell."""

    def __init__(self, sizes: list[tuple[ndarray, ndarray]],
                 blocks: list[tuple[int, int, int, int]], words: WordTable):
        self.sizes, self.blocks, self.words = sizes, blocks, words

    def __len__(self) -> int:
        return sum(len(count) for _, count in self.sizes)

    def rows(self, size: int, names: ndarray, join: Callable) -> Iterator[tuple]:
        """Each pattern of ``size`` ranks, in order, as ``join`` of the
        ``names`` of its ranks, and its count; made 4096 at a time."""
        ranks, count = self.sizes[size - 1]
        for lo in range(0, len(count), 4096):
            yield from zip(map(join, names[ranks[lo:lo + 4096]].tolist()),
                           count[lo:lo + 4096].tolist())

    @cached_property
    def _ends(self) -> tuple[list[int], list[int]]:
        """Each block's end in the order and its start in its size."""
        seen, starts = [0] * len(self.sizes), []
        for _, _, size, n in self.blocks:
            starts.append(seen[size - 1])
            seen[size - 1] += n
        return list(accumulate(n for *_, n in self.blocks)), starts

    def __getitem__(self, i):
        i = range(len(self))[i]  # negatives wrapped, IndexError past either end
        if isinstance(i, range):
            return [self[j] for j in i]
        ends, starts = self._ends
        b = bisect_right(ends, i)
        level, code, size, n = self.blocks[b]
        ranks, count = self.sizes[size - 1]
        at = starts[b] + i - (ends[b] - n)
        return SpatialPattern(frozenset([self.words.order[r] for r in ranks[at].tolist()]),
                              Gid(level, code), int(count[at]))

    def __iter__(self) -> Iterator[SpatialPattern]:
        import numpy as np

        names = np.array(self.words.order, np.int64)
        rows = [self.rows(size, names, frozenset) for size in range(1, len(self.sizes) + 1)]
        gid = None
        for level, code, size, n in self.blocks:
            if gid != (level, code):
                gid = Gid(level, code)
            for words, count in islice(rows[size - 1], n):
                yield SpatialPattern(words, gid, count)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Patterns)) else NotImplemented


def canonical(found: Found, words: WordTable) -> Patterns:
    """``mine_tree``'s columns, each size sorted, as a ``Patterns`` in
    canonical order: level descending, then cell, size and ranks."""
    import numpy as np

    sizes, blocks = [], []
    for size, (ranks, level, code, count) in enumerate(found, 1):
        order = np.lexsort((*ranks.T[::-1], code, ~level))
        ranks, level, code, count = ranks[order], level[order], code[order], count[order]
        new = np.ones(len(order), bool)
        new[1:] = (level[1:] != level[:-1]) | (code[1:] != code[:-1])
        at = np.flatnonzero(new)
        sizes.append((ranks, count))
        blocks.append((level[at], code[at], np.full(len(at), size),
                       np.diff(at, append=len(order))))
    level, code, size, n = (np.concatenate(c) for c in zip(*blocks))
    order = np.lexsort((code, ~level))  # stable, so sizes ascend within a cell
    return Patterns(sizes, list(zip(*(c[order].tolist() for c in (level, code, size, n)))),
                    words)


def patterns_to_dict(patterns: Iterable[SpatialPattern]) -> dict[tuple[frozenset[int], int, int], int]:
    """Key patterns as (wordset, level, code) for order-free comparison."""
    out = {}
    for p in patterns:
        out[(p.words, p.gid.level, p.gid.code)] = p.count
    return out
