"""Cell-annotated prefix tree built in two passes over one read.

Pass one reads each record once: it keeps the in-box records as compact
columns and counts every word over them. Words whose global count falls
below sigma are dropped for good. From pass two on the miner works on
word ranks in the global order. Pass two builds the whole tree from the
columns with numpy array operations, with no loop per record: each
record's ascending ranks, the records in the order of those rank
tuples, each record sharing the nodes of its common prefix with the one
before. It returns the tree as one frozen value that growth only reads:
flat numpy arrays (node rank, parent and depth), with no object per
node, plus the paper's (word, cell) header: per rank, one run of (leaf,
node, count) entries in (leaf, node) order, so any cell at any level is
one range of a run. The header is one lexsort of every entry's (node,
leaf) pair by (rank, leaf), and one header entry per run of equal pairs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import PointOutOfBounds
from .grid import Grid, encode
from .text import GeoRecord

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ScanStats:
    """Counters filled while scanning a record source."""

    records: int = 0        # records consumed, in-box or not
    skipped: int = 0        # records outside the bounding box
    distinct_words: int = 0  # words seen before frequency filtering


class WordTable:
    """Retained words with their global counts and the global order.

    Order is descending count, ties ascending word id; ``rank`` maps a
    word id to its position in that order.
    """

    def __init__(self, counts: dict[int, int]):
        self.counts = counts
        self.order: list[int] = sorted(counts, key=lambda w: (-counts[w], w))
        self.rank: dict[int, int] = {w: i for i, w in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)


class Columns:
    """The in-box records of one read as compact arrays: record ``i``
    holds ``wids[offsets[i]:offsets[i + 1]]`` in leaf cell ``leaves[i]``."""

    def __init__(self):
        self.offsets = array("q", [0])
        self.wids = array("I")
        self.leaves = array("q")


@dataclass(frozen=True, eq=False)
class SpatialTree:
    """The cell-annotated prefix tree as flat numpy arrays, built at once
    by ``insert_record`` and only read after that.

    Node 0 is the root. Node ``n`` holds the word of rank ``rank_of[n]``
    under node ``parent_of[n]``, with ``depth_of[n]`` nodes between it
    and the root. Nodes are numbered in depth-first order and siblings in
    rank order. Rank ``r``'s header run is ``head_start[r]:head_start[r + 1]``
    of ``head_leaf``, ``head_node`` and ``head_count``: one entry per
    distinct (node, leaf cell) of its nodes, in (leaf, node) order, with
    the records through that node in that leaf.
    """

    words: WordTable
    height: int
    rank_of: np.ndarray
    parent_of: np.ndarray
    depth_of: np.ndarray
    head_start: np.ndarray
    head_leaf: np.ndarray
    head_node: np.ndarray
    head_count: np.ndarray

    def nodes_of(self, wid: int) -> np.ndarray:
        """Every tree node holding word id ``wid``, in ascending node order."""
        import numpy as np

        r = self.words.rank.get(wid)
        run = slice(0, 0) if r is None else slice(self.head_start[r], self.head_start[r + 1])
        return np.unique(self.head_node[run])


def scan_counts(records: Iterable[GeoRecord], sigma: int, grid: Grid,
                stats: ScanStats | None = None,
                ) -> tuple[WordTable, Columns]:
    """First pass: the one read of ``records``.

    Returns the retained words (global count >= sigma) and the in-box
    records as columns for pass two.
    """
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    cols = Columns()
    offsets, wids, leaves = cols.offsets, cols.wids, cols.leaves
    seen = skipped = 0
    for rec in records:
        seen += 1
        try:
            leaf = encode(rec.point, grid).code
        except PointOutOfBounds:
            skipped += 1
            continue
        wids.extend(rec.words)
        offsets.append(len(wids))
        leaves.append(leaf)
    import numpy as np

    counts = np.bincount(np.frombuffer(wids, np.uint32))
    kept = np.flatnonzero(counts >= sigma)
    if stats is not None:
        stats.records = seen
        stats.skipped = skipped
        stats.distinct_words = int(np.count_nonzero(counts))
    return WordTable(dict(zip(kept.tolist(), counts[kept].tolist()))), cols


def insert_record(words: WordTable, cols: Columns, height: int) -> SpatialTree:
    """Pass two: the whole tree of pass one's columns, built at once.

    One call per run, as numpy array operations, under this name because
    the benchmark's tracer times pass two by wrapping
    ``engine.insert_record``. Each record becomes its ascending retained
    ranks, and the records are ordered by those rank tuples. A record
    shares the nodes of its common prefix with the record before it;
    each entry past that prefix is a new node, numbered in entry order,
    which is depth-first order. Records left with no retained word add
    nothing; a record that repeats a retained word is refused.
    """
    import numpy as np

    wids = np.frombuffer(cols.wids, np.uint32)
    # Each entry's rank, -1 for a dropped word, through one lookup table.
    table = np.full(max(int(wids.max(initial=0)), max(words.order, default=0)) + 1, -1, np.int32)
    table[words.order] = np.arange(len(words), dtype=np.int32)
    rank = table[wids]
    del table
    keep = rank >= 0
    # Ranks ascending within each record: one sort by (record, rank).
    key = np.repeat(np.arange(len(cols.leaves)), np.diff(np.frombuffer(cols.offsets, np.int64)))
    key = key[keep]
    lens = np.bincount(key, minlength=len(cols.leaves))
    key *= len(words)
    key += rank[keep]
    del rank, keep
    key.sort()
    if (key[1:] == key[:-1]).any():
        raise ValueError("a record repeats a word id")
    rank = (key % len(words)).astype(np.int32)
    del key
    # The records that keep a word, ordered by their rank tuples: big-endian
    # bytes compare as the tuples do, a prefix before its extensions.
    recs = np.flatnonzero(lens)
    lens = lens[recs]
    starts = np.cumsum(lens) - lens
    buf = rank.astype(">u4").tobytes()
    keys = [buf[a:b] for a, b in zip((4 * starts).tolist(), (4 * (starts + lens)).tolist())]
    del buf
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), np.int64)
    del keys
    # Entries in that order, with each one's depth in its record.
    recs, lens, starts = recs[order], lens[order], starts[order]
    del order
    firsts = np.cumsum(lens) - lens
    at = np.repeat(np.arange(len(recs), dtype=np.int32), lens)
    depth = np.arange(len(at), dtype=np.int32)
    depth -= firsts.astype(np.int32)[at]
    rank = rank[starts[at] + depth]
    leaf = np.frombuffer(cols.leaves, np.int64)[recs][at]
    del recs, starts
    # An entry is shared with the record before when that record has the
    # same ranks down to its depth, and new from the first that differs.
    before = np.concatenate(([0], lens[:-1])).astype(np.int32)[at]
    same = depth < before
    same &= rank[np.arange(len(at)) - before] == rank
    del before
    prefix = np.minimum.reduceat(np.where(same, len(at), depth), firsts)
    new = depth >= prefix[at]
    del at, same, prefix, lens, firsts
    # New entries take node ids in entry order; every other entry the id
    # of the last new entry at its depth, which is its node in the record
    # before.
    node = np.cumsum(new, dtype=np.int32)
    by_depth = np.argsort(_narrow(np, depth, depth.max(initial=0)), kind="stable")
    last = np.where(new[by_depth], np.arange(len(new), dtype=np.int32), 0)
    np.maximum.accumulate(last, out=last)
    node[by_depth] = node[by_depth][last]
    del by_depth, last
    # A new node hangs under the entry before it in its record, or the root.
    new = np.flatnonzero(new)
    parent = np.where(depth[new] > 0, node[new - 1], 0)
    # The root is node 0, of no rank, its own parent, at depth 0.
    rank_of, parent_of, depth_of = (np.insert(column, 0, root) for column, root
                                    in ((rank[new], -1), (parent, 0), (depth[new], 0)))
    del new, parent, depth
    return SpatialTree(words, height, rank_of, parent_of, depth_of,
                       *_header(np, rank, leaf, node, height, len(words)))


def _header(np, rank, leaf, node, height: int, nwords: int):
    """``head_start``, ``head_leaf``, ``head_node`` and ``head_count``:
    the (node, leaf) pair of every entry, with its rank, sorted into the
    (word, cell) header, then one header entry per run of equal pairs.
    The entries come in record order, so the nodes of each rank ascend
    already, and a stable sort by (rank, leaf) is a sort by (rank, leaf,
    node). Keys cast to their narrowest unsigned type sort by radix when
    they fit 16 bits."""
    order = np.lexsort((_narrow(np, leaf, (1 << 2 * height) - 1), _narrow(np, rank, nwords)))
    leaf = leaf[order]
    node = node[order]
    rank = rank[order]
    del order
    first = np.ones(len(node), bool)
    first[1:] = (node[1:] != node[:-1]) | (leaf[1:] != leaf[:-1])
    first = np.flatnonzero(first)
    sizes = np.diff(first, append=len(node))
    node, leaf, rank = node[first], leaf[first], rank[first]
    return np.searchsorted(rank, np.arange(nwords + 1)), leaf, node, sizes


def _narrow(np, a, top: int):
    """``a``, of values in ``0..top``, in the narrowest unsigned type."""
    return a.astype(np.min_scalar_type(top), copy=False)
