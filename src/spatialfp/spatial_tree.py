"""Cell-annotated prefix tree built in two passes over one read.

Pass one reads each record once: it keeps the in-box records as compact
columns and counts every word over them. Words whose global count falls
below sigma are dropped for good. From pass two on the miner works on
word ranks in the global order: each record becomes its ascending rank
tuple, and the records, sorted by those tuples, are appended to the tree
past their common prefix with the one before. The tree is flat arrays
(node rank, node parent), with no object per node, plus the paper's
(word, cell) header: per rank, one run of (leaf, node, count) entries
in (leaf, node) order, so any cell at any level is one range of a run.
``finalize`` builds the header with numpy: one lexsort of the logged
(node, leaf) events by (rank, leaf, node) and one entry per run of
equal events.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OrderViolation, PointOutOfBounds
from .grid import Grid, encode
from .text import GeoRecord


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


class SpatialTree:
    """The cell-annotated prefix tree as flat arrays.

    Node 0 is the root. Node ``n`` holds the word of rank ``rank_of[n]``
    under node ``parent_of[n]``. Records must arrive in ascending order
    of their rank tuples (see ``sorted_records``), so that nodes are
    numbered in depth-first order and siblings in rank order. Rank
    ``r``'s header run is ``head_start[r]:head_start[r + 1]`` of
    ``head_leaf``, ``head_node`` and ``head_count``: one entry per
    distinct (node, leaf cell) of its nodes, in (leaf, node) order, with
    the records through that node in that leaf. Until ``finalize`` the
    header is a log of (node, leaf) events, one per node on each
    record's path, and every reader raises.
    """

    def __init__(self, words: WordTable, height: int):
        self.words = words
        self.height = height
        self.rank_of = array("q", [-1])
        self.parent_of = array("q", [0])
        self.head_start = array("q")
        self.head_leaf = array("q")
        self.head_node = array("q")
        self.head_count = array("q")
        self.finalized = False
        self._event_node = array("q")
        self._event_leaf = array("q")
        self._last: tuple[int, ...] = ()  # ranks of the last record inserted
        self._path: list[int] = []  # its nodes, root excluded

    def finalize(self) -> None:
        """Sort the event log once into the (word, cell) header: a lexsort
        by (rank, leaf, node), then one entry per run of equal events."""
        if self.finalized:
            return
        import numpy as np

        rank_of = np.frombuffer(self.rank_of, np.int64).astype(np.int32)
        node = np.frombuffer(self._event_node, np.int64).astype(np.int32)
        self._event_node = array("q")
        leaf = np.frombuffer(self._event_leaf, np.int64)
        order = np.lexsort((node, leaf, rank_of[node]))
        leaf = leaf[order]
        self._event_leaf = array("q")
        node = node[order]
        del order
        first = np.ones(len(node), bool)
        first[1:] = (node[1:] != node[:-1]) | (leaf[1:] != leaf[:-1])
        first = np.flatnonzero(first)
        sizes = np.diff(first, append=len(node))
        node, leaf = node[first], leaf[first]
        start = np.searchsorted(rank_of[node], np.arange(len(self.words) + 1))
        # Each column is freed before the next field grows, which can then
        # reuse its memory.
        columns = [(self.head_start, start), (self.head_count, sizes),
                   (self.head_node, node), (self.head_leaf, leaf)]
        del first, start, sizes, node, leaf
        while columns:
            field, column = columns.pop()
            field.frombytes(column.astype(np.int64, copy=False).view(np.uint8))
        self.finalized = True

    def nodes_of(self, wid: int) -> array:
        """Every tree node holding word id ``wid``, in ascending node order."""
        if not self.finalized:
            raise RuntimeError("the tree is read only after finalize()")
        r = self.words.rank.get(wid)
        run = slice(0, 0) if r is None else slice(self.head_start[r], self.head_start[r + 1])
        return array("q", sorted(set(self.head_node[run])))


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
    counts = Counter(wids)
    if stats is not None:
        stats.records = seen
        stats.skipped = skipped
        stats.distinct_words = len(counts)
    return WordTable({w: c for w, c in counts.items() if c >= sigma}), cols


def sorted_records(cols: Columns, words: WordTable) -> list[tuple[tuple[int, ...], int]]:
    """Pass two: each record's retained words as an ascending rank tuple,
    with its leaf, in ascending order of those tuples. Records left with
    no retained word are skipped."""
    rank, wids = words.rank, cols.wids
    keyed = []
    start = 0
    for end, leaf in zip(cols.offsets[1:], cols.leaves):
        # Tuples of ints drop out of the cyclic collector's bookkeeping.
        ranks = tuple(sorted([rank[w] for w in wids[start:end] if w in rank]))
        start = end
        if ranks:
            keyed.append((ranks, leaf))
    keyed.sort()
    return keyed


def insert_record(tree: SpatialTree, ranks: Sequence[int], cell: int) -> None:
    """Second-pass insertion of one record's retained words as ranks.

    ``ranks`` must be strictly ascending ints in ``range(len(tree.words))``.
    Reuses the previous record's path up to their common prefix, appends
    nodes for the rest and logs one event per node on the path. Records
    must come in ``sorted_records`` order; equal records may recur.
    """
    if tree.finalized:
        raise RuntimeError("cannot insert after finalize()")
    if not 0 <= cell < 1 << 2 * tree.height:
        raise ValueError(f"leaf cell {cell} outside a height-{tree.height} grid")
    ranks, n = tuple(ranks), len(tree.words)
    prev = -1
    for r in ranks:
        if r <= prev or r >= n:
            raise OrderViolation(f"ranks {ranks} not strictly ascending in 0..{n - 1}")
        prev = r
    if not ranks:
        return
    last, path = tree._last, tree._path
    if ranks < last:
        raise OrderViolation("record sorts before the one inserted last")
    k = 0
    for r, prev in zip(ranks, last):
        if r != prev:
            break
        k += 1
    del path[k:]
    rank_of, parent_of = tree.rank_of, tree.parent_of
    parent = path[-1] if path else 0
    for r in ranks[k:]:
        node = len(rank_of)
        rank_of.append(r)
        parent_of.append(parent)
        path.append(node)
        parent = node
    tree._last = ranks
    tree._event_node.extend(path)
    tree._event_leaf.extend([cell] * len(path))
