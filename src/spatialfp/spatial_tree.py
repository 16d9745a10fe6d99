"""Cell-annotated prefix tree built in two passes over one read.

Pass one reads each record once: it counts every word globally and per
leaf cell and keeps the in-box records as compact columns. Words whose
global count falls below sigma are dropped for good. Pass two walks the
columns and inserts each record's surviving words, sorted by global
frequency, into a prefix tree whose nodes carry per-leaf-cell counts.
The per-(word, cell) header holds the pass-one counts, and ``nodes_of``
lists the tree nodes holding each word.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import OrderViolation, PointOutOfBounds
from .grid import Gid, Grid, encode, gid_str
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

    def __contains__(self, wid: int) -> bool:
        return wid in self.counts


class CellTable:
    """Per-(word, leaf cell) record counts, indexed by word."""

    def __init__(self):
        self._by_word: dict[int, dict[int, int]] = {}

    def add(self, wids: Iterable[int], cell: int) -> None:
        """Count one record holding ``wids`` in leaf cell ``cell``."""
        by_word = self._by_word
        for wid in wids:
            cells = by_word.get(wid)
            if cells is None:
                by_word[wid] = {cell: 1}
            else:
                cells[cell] = cells.get(cell, 0) + 1

    def totals(self) -> dict[int, int]:
        """Each word's count summed over its cells."""
        return {wid: sum(cells.values()) for wid, cells in self._by_word.items()}

    def prune(self, keep: WordTable) -> None:
        for wid in [w for w in self._by_word if w not in keep]:
            del self._by_word[wid]

    def cells_of(self, wid: int) -> dict[int, int]:
        return self._by_word.get(wid, {})

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._by_word.values())

    def items(self) -> Iterator[tuple[int, int, int]]:
        for wid, cells in self._by_word.items():
            for cell, count in cells.items():
                yield wid, cell, count


class Columns:
    """The in-box records of one read as compact arrays: record ``i``
    holds ``wids[offsets[i]:offsets[i + 1]]`` in leaf cell ``leaves[i]``."""

    def __init__(self):
        self.offsets = array("q", [0])
        self.wids = array("I")
        self.leaves = array("q")

    def append(self, wids: Iterable[int], leaf: int) -> None:
        self.wids.extend(wids)
        self.offsets.append(len(self.wids))
        self.leaves.append(leaf)


class SpatialNode:
    __slots__ = ("wid", "parent", "children", "cells")

    def __init__(self, wid: int, parent: "SpatialNode | None"):
        self.wid = wid
        self.parent = parent
        self.children: dict[int, SpatialNode] = {}
        self.cells: dict[int, int] = {}  # leaf cell code -> count


class SpatialTree:
    def __init__(self, words: WordTable, header: CellTable, height: int):
        self.words = words
        self.header = header
        self.height = height
        self.root = SpatialNode(-1, None)
        self._nodes_by_word: dict[int, list[SpatialNode]] = {}

    def nodes_of(self, wid: int) -> list[SpatialNode]:
        """Every tree node holding ``wid``, in creation order."""
        return self._nodes_by_word.get(wid, [])


def scan_counts(records: Iterable[GeoRecord], sigma: int, grid: Grid,
                stats: ScanStats | None = None,
                ) -> tuple[WordTable, CellTable, Columns]:
    """First pass: the one read of ``records``.

    Returns the retained words (global count >= sigma), the cell table
    restricted to them, and the in-box records as columns for pass two.
    """
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    header = CellTable()
    cols = Columns()
    seen = skipped = 0
    for rec in records:
        seen += 1
        try:
            leaf = encode(rec.point, grid).code
        except PointOutOfBounds:
            skipped += 1
            continue
        header.add(rec.words, leaf)
        cols.append(rec.words, leaf)
    counts = header.totals()
    if stats is not None:
        stats.records = seen
        stats.skipped = skipped
        stats.distinct_words = len(counts)
    words = WordTable({w: c for w, c in counts.items() if c >= sigma})
    header.prune(words)
    return words, header, cols


def filter_sort(wordset: Iterable[int], words: WordTable) -> list[int]:
    """Drop unretained words and sort the rest by the global order."""
    rank = words.rank
    return sorted([w for w in wordset if w in rank], key=rank.__getitem__)


def sorted_records(cols: Columns, words: WordTable) -> Iterator[tuple[list[int], int]]:
    """Pass two: each record's retained words in global order, with its leaf.

    Records left with no retained word are skipped.
    """
    wids = cols.wids
    start = 0
    for end, leaf in zip(cols.offsets[1:], cols.leaves):
        kept = filter_sort(wids[start:end], words)
        start = end
        if kept:
            yield kept, leaf


def insert_record(tree: SpatialTree, sorted_wids: list[int], cell: int) -> None:
    """Second-pass insertion of one record's surviving words.

    Walks or extends the prefix path and bumps the touched nodes'
    counts for ``cell``.
    """
    rank = tree.words.rank
    node = tree.root
    prev_rank = -1
    for wid in sorted_wids:
        r = rank.get(wid)
        if r is None:
            raise OrderViolation(f"word {wid} is not retained in this tree")
        if r <= prev_rank:
            raise OrderViolation("words not sorted by the tree's global order")
        prev_rank = r
        child = node.children.get(wid)
        if child is None:
            child = SpatialNode(wid, node)
            node.children[wid] = child
            tree._nodes_by_word.setdefault(wid, []).append(child)
            child.cells[cell] = 1
        else:
            cells = child.cells
            cells[cell] = cells.get(cell, 0) + 1
        node = child


def build_tree(source: Iterable[GeoRecord], sigma: int, grid: Grid,
               stats: ScanStats | None = None) -> SpatialTree:
    """Both passes over one read of ``source``; see the module docstring."""
    words, header, cols = scan_counts(source, sigma, grid, stats)
    tree = SpatialTree(words, header, grid.height)
    for wids, leaf in sorted_records(cols, words):
        insert_record(tree, wids, leaf)
    return tree


def dump(tree: SpatialTree, name_of=None) -> str:
    """Indented debug rendering: one node per line, "word [cell:count, ...]"."""
    if name_of is None:
        name_of = str
    lines = ["(root)"]

    def walk(node: SpatialNode, depth: int) -> None:
        rank = tree.words.rank
        for child in sorted(node.children.values(), key=lambda n: rank[n.wid]):
            cells = ", ".join(
                f"{gid_str(Gid(tree.height, code))}:{child.cells[code]}"
                for code in sorted(child.cells))
            lines.append(f"{'  ' * depth}{name_of(child.wid)} [{cells}]")
            walk(child, depth + 1)

    walk(tree.root, 1)
    return "\n".join(lines)


def tree_equal(a: SpatialTree, b: SpatialTree) -> bool:
    """Structural equality: same shape, same per-node cell counts."""

    def node_eq(x: SpatialNode, y: SpatialNode) -> bool:
        if x.wid != y.wid or x.cells != y.cells:
            return False
        if x.children.keys() != y.children.keys():
            return False
        return all(node_eq(x.children[w], y.children[w]) for w in x.children)

    return a.height == b.height and a.words.counts == b.words.counts \
        and node_eq(a.root, b.root)
