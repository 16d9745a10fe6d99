"""Shared fixtures-in-code: reference databases, fuzz instances, invariants."""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from array import array
from itertools import accumulate, chain, combinations, repeat, starmap
from typing import Sequence

import numpy as np

from spatialfp.datagen import GenConfig, PlantedPattern, generate
from spatialfp.errors import InvalidLevel, PointOutOfBounds, SpatialFpError
from spatialfp.formats import MalformedRecord
from spatialfp.grid import BoundingBox, GeoPoint, Gid, Grid, cell_bounds, encode, gid_str
from spatialfp.spatial_mining import (Bases, Found, Patterns, SpatialPattern, canonical,
                                      fp_growth, mine_tree, tree_from_weighted_paths)
from spatialfp.spatial_tree import Columns, SpatialTree, WordTable, insert_record, scan_counts
from spatialfp.text import GeoRecord, Vocabulary, tokenize

# --- grid and vocabulary queries the program itself does not need ---------


def ancestor_at(gid: Gid, level: int) -> Gid:
    """The level-``level`` cell enclosing ``gid`` (identity at its own level)."""
    if level < 0 or level > gid.level:
        raise InvalidLevel(f"level {level} not in [0, {gid.level}]")
    return Gid(level, gid.code >> 2 * (gid.level - level))


def children_of(gid: Gid, height: int) -> list[Gid]:
    """The four cells one level below ``gid``, in quadrant-digit order."""
    if gid.level >= height:
        raise InvalidLevel(f"cell at level {gid.level} has no children in a height-{height} grid")
    base = gid.code << 2
    return [Gid(gid.level + 1, base | q) for q in range(4)]


def cell_center(gid: Gid, grid: Grid) -> GeoPoint:
    lon0, lat0, lon1, lat1 = cell_bounds(gid, grid)
    return GeoPoint((lon0 + lon1) / 2.0, (lat0 + lat1) / 2.0)


def vocab_wid(vocab: Vocabulary, word: str) -> int:
    """The id of an interned word; KeyError for any other."""
    return vocab._wids[word]


def vocab_get(vocab: Vocabulary, word: str) -> int | None:
    """The id of an interned word, or None."""
    return vocab._wids.get(word)


def vocab_has(vocab: Vocabulary, word: str) -> bool:
    return word in vocab._wids


# --- four-record reference database (grid height 1, sigma 2) ---------------
#
# wid 0 = "a", 1 = "b", 2 = "c". Cells: code 0 holds r1, r2; code 1 holds
# r3, r4. Word c occurs once globally and is dropped at sigma 2.

A, B, C = 0, 1, 2
REF_BBOX = BoundingBox(0.0, 0.0, 4.0, 4.0)
REF_GRID = Grid(REF_BBOX, 1)


def reference_records() -> list[GeoRecord]:
    return [
        GeoRecord("r1", frozenset({A, B}), GeoPoint(1.0, 1.0)),
        GeoRecord("r2", frozenset({A, B}), GeoPoint(1.0, 1.0)),
        GeoRecord("r3", frozenset({A}), GeoPoint(3.0, 1.0)),
        GeoRecord("r4", frozenset({B, C}), GeoPoint(3.0, 1.0)),
    ]


# Expected mining output at sigma 2, keyed (wordset, level, code).
REF_PATTERNS = {
    (frozenset({A}), 1, 0): 2,
    (frozenset({B}), 1, 0): 2,
    (frozenset({A, B}), 1, 0): 2,
    (frozenset({A}), 0, 0): 3,
    (frozenset({B}), 0, 0): 3,
    (frozenset({A, B}), 0, 0): 2,
}

# --- five-transaction example database (no geometry) ------------------------
#
# wids from interning each wordset in sorted order:
# expensive=0, italian=1, restaurant=2, coffee=3, pizza=4.

EXPENSIVE, ITALIAN, RESTAURANT, COFFEE, PIZZA = 0, 1, 2, 3, 4

DINING_TRANSACTIONS = [
    {ITALIAN, RESTAURANT, EXPENSIVE},
    {COFFEE, EXPENSIVE, RESTAURANT},
    {ITALIAN, PIZZA, EXPENSIVE},
    {RESTAURANT, PIZZA, EXPENSIVE},
    {ITALIAN, RESTAURANT},
]

# The eight itemsets frequent at minsup 2, with exact supports counted by
# hand over the five transactions above.
DINING_EXPECTED = {
    frozenset({RESTAURANT}): 4,
    frozenset({EXPENSIVE}): 4,
    frozenset({ITALIAN}): 3,
    frozenset({PIZZA}): 2,
    frozenset({RESTAURANT, EXPENSIVE}): 3,
    frozenset({ITALIAN, RESTAURANT}): 2,
    frozenset({ITALIAN, EXPENSIVE}): 2,
    frozenset({PIZZA, EXPENSIVE}): 2,
}


def powerset_counts(transactions, sigma):
    """Even-dumber itemset oracle: count every nonempty subset directly."""
    counts = {}
    for t in transactions:
        t = sorted(set(t))
        for k in range(1, len(t) + 1):
            for comb in combinations(t, k):
                key = frozenset(comb)
                counts[key] = counts.get(key, 0) + 1
    return {s: c for s, c in counts.items() if c >= sigma}


# --- seeded fuzz instances ---------------------------------------------------

FUZZ_BBOX = BoundingBox(-10.0, -5.0, 10.0, 5.0)


def fuzz_instance(seed: int):
    """One random mining instance inside the brute-force envelope.

    Sizes stay within (records <= 2000, vocabulary <= 50, height <= 3);
    sigma cycles 2, 3, 5. Roughly every third instance plants patterns.
    """
    rnd = random.Random(seed)
    height = rnd.randint(0, 3)
    grid = Grid(FUZZ_BBOX, height)
    sigma = (2, 3, 5)[seed % 3]
    n = rnd.choice([30, 80, 150, 300, 600])
    vocab = rnd.randint(8, 50)
    planted = ()
    if seed % 3 == 0 and n >= 50:
        k = rnd.randint(1, 3)
        words = tuple(sorted(rnd.sample(range(vocab), k)))
        level = rnd.randint(0, height)
        code = rnd.randrange(4 ** level) if level else 0
        planted = (PlantedPattern(words, Gid(level, code), rnd.randint(5, 20)),)
    cfg = GenConfig(
        n_records=n,
        vocab_size=vocab,
        zipf_exponent=rnd.uniform(0.6, 1.3),
        words_per_record_mean=rnd.uniform(3.0, 8.0),
        planted=planted,
        seed=seed,
    )
    return generate(cfg, grid), grid, sigma


# --- the tree alone, built as engine.mine builds it ------------------------


def build_tree(source, sigma: int, grid: Grid) -> SpatialTree:
    """Both passes over one read of ``source``, built, without growth."""
    words, cols, *_ = scan_counts(source, sigma, grid)
    return insert_record(words, cols, grid.height)


def columns_of(records) -> Columns:
    """In-box records as pass one's columns, from ``(wids, leaf)`` pairs."""
    cols = Columns()
    for wids, leaf in records:
        cols.wids.extend(wids)
        cols.offsets.append(len(cols.wids))
        cols.leaves.append(leaf)
    return cols


# --- the reference pass two: sorted rank tuples, one record at a time -------


class OrderViolation(SpatialFpError):
    """A word list handed to ``reference_insert`` was not in the tree's order."""


class ReferenceTree:
    """A tree grown one record at a time by ``reference_insert``, the
    reference for the array build: each node's rank and parent, and an
    event log of one (node, leaf) event per node on each record's path.
    ``finalize`` sorts the log into the header by ``reference_header``
    and returns the ``SpatialTree`` of these arrays, with each node's
    depth counted from its parent's."""

    def __init__(self, words: WordTable, height: int):
        self.words = words
        self.height = height
        self.rank_of = array("q", [-1])
        self.parent_of = array("q", [0])
        self._event_node = array("q")
        self._event_leaf = array("q")
        self._last: tuple[int, ...] = ()  # ranks of the last record inserted
        self._path: list[int] = []  # its nodes, root excluded
        self.finalized = False

    def finalize(self) -> SpatialTree:
        self.finalized = True
        depth_of = [0] * len(self.rank_of)
        for node in range(1, len(self.rank_of)):  # a parent precedes its children
            up = self.parent_of[node]
            depth_of[node] = depth_of[up] + 1 if up else 0
        columns = (self.rank_of, self.parent_of, depth_of, *reference_header(self))
        return SpatialTree(self.words, self.height, *map(np.array, columns))


def sorted_records(cols: Columns, words: WordTable) -> list[tuple[tuple[int, ...], int]]:
    """Each record's retained words as an ascending rank tuple, with its
    leaf, in ascending order of those tuples. Records left with no
    retained word are skipped."""
    rank, wids = words.rank, cols.wids
    keyed = []
    start = 0
    for end, leaf in zip(cols.offsets[1:], cols.leaves):
        ranks = tuple(sorted([rank[w] for w in wids[start:end] if w in rank]))
        start = end
        if ranks:
            keyed.append((ranks, leaf))
    keyed.sort()
    return keyed


def reference_insert(tree: ReferenceTree, ranks: Sequence[int], cell: int) -> None:
    """Insert one record's retained words as ranks.

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


def reference_tree(cols: Columns, words: WordTable, height: int) -> SpatialTree:
    """The tree of ``cols`` built by the reference pass two."""
    tree = ReferenceTree(words, height)
    for ranks, leaf in sorted_records(cols, words):
        reference_insert(tree, ranks, leaf)
    return tree.finalize()


def reference_header(tree: ReferenceTree) -> tuple[array, array, array, array]:
    """``head_start``, ``head_leaf``, ``head_node`` and ``head_count`` of
    a reference tree, from its event log: one Python int per event,
    sorted, then one entry per run of equal ints."""
    rank_of = tree.rank_of
    shift, width = 2 * tree.height, len(rank_of).bit_length()
    node_mask, leaf_mask = (1 << width) - 1, (1 << shift) - 1
    events = sorted((rank_of[node] << shift | leaf) << width | node for node, leaf
                    in zip(tree._event_node, tree._event_leaf))
    sizes = array("q", bytes(8 * (len(tree.words) + 1)))
    leaves, nodes, counts = array("q"), array("q"), array("q")
    last = -1
    for event in events:
        if event == last:
            counts[-1] += 1
            continue
        last = event
        node = event & node_mask
        leaves.append(event >> width & leaf_mask)
        nodes.append(node)
        counts.append(1)
        sizes[rank_of[node] + 1] += 1
    return array("q", accumulate(sizes)), leaves, nodes, counts


# --- structural invariant checks --------------------------------------------


def node_cells(tree: SpatialTree, node: int) -> dict[int, int]:
    """One node's leaf-cell counts as a dict, read off its rank's header run."""
    r = tree.rank_of[node]
    lo, hi = tree.head_start[r], tree.head_start[r + 1]
    return {leaf: count for leaf, n, count
            in zip(tree.head_leaf[lo:hi], tree.head_node[lo:hi], tree.head_count[lo:hi])
            if n == node}


def node_word(tree: SpatialTree, node: int) -> int:
    """The word id a node holds."""
    return tree.words.order[tree.rank_of[node]]


def node_path(tree: SpatialTree, node: int) -> tuple[int, ...]:
    """The word ids from the root down to ``node``, its own word last."""
    path = []
    while node:
        path.append(node_word(tree, node))
        node = tree.parent_of[node]
    return tuple(reversed(path))


def children(tree: SpatialTree) -> dict[int, list[int]]:
    """Each node's children, in ascending node order, which is rank order."""
    out: dict[int, list[int]] = {n: [] for n in range(len(tree.rank_of))}
    for node in range(1, len(tree.rank_of)):
        out[tree.parent_of[node]].append(node)
    return out


def dump(tree: SpatialTree, name_of=None) -> str:
    """Indented debug rendering: one node per line, "word [cell:count, ...]"."""
    if name_of is None:
        name_of = str
    kids = children(tree)
    lines = ["(root)"]

    def walk(node: int, depth: int) -> None:
        for child in kids[node]:
            cells = node_cells(tree, child)
            text = ", ".join(f"{gid_str(Gid(tree.height, code))}:{cells[code]}"
                             for code in sorted(cells))
            lines.append(f"{'  ' * depth}{name_of(node_word(tree, child))} [{text}]")
            walk(child, depth + 1)

    walk(0, 1)
    return "\n".join(lines)


TREE_ARRAYS = ("rank_of", "parent_of", "depth_of", "head_start", "head_leaf", "head_node",
               "head_count")


def tree_equal(a: SpatialTree, b: SpatialTree) -> bool:
    """Structural equality: same shape, same depths, same (word, cell)
    header, all seven arrays compared by value.

    Nodes are numbered in depth-first order of the sorted records, so
    equal trees have equal arrays.
    """
    return (a.height == b.height and a.words.counts == b.words.counts
            and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in TREE_ARRAYS))


def check_mass_conservation(tree: SpatialTree, records, grid: Grid) -> None:
    """Summed node counts per word equal its in-box record occurrences."""
    from spatialfp.errors import PointOutOfBounds

    expected: dict[int, int] = {}
    for rec in records:
        try:
            encode(rec.point, grid)
        except PointOutOfBounds:
            continue
        for w in rec.words:
            expected[w] = expected.get(w, 0) + 1
    for wid in tree.words.order:
        total = sum(sum(node_cells(tree, n).values()) for n in tree.nodes_of(wid))
        assert total == expected.get(wid, 0) == tree.words.counts[wid], wid


def record_cell_counts(records, grid: Grid, words: WordTable) -> dict[tuple[int, int], int]:
    """(wid, leaf) -> in-box records holding the retained word ``wid`` in
    leaf cell ``leaf``, counted straight from the records."""
    out: dict[tuple[int, int], int] = {}
    for rec in records:
        try:
            leaf = encode(rec.point, grid).code
        except PointOutOfBounds:
            continue
        for w in rec.words:
            if w in words.rank:
                out[(w, leaf)] = out.get((w, leaf), 0) + 1
    return out


def tree_cell_totals(tree: SpatialTree) -> dict[tuple[int, int], int]:
    """(wid, leaf) -> the word's count in the leaf cell, summed over its nodes."""
    out: dict[tuple[int, int], int] = {}
    for wid in tree.words.order:
        for node in tree.nodes_of(wid):
            for leaf, count in node_cells(tree, node).items():
                out[(wid, leaf)] = out.get((wid, leaf), 0) + count
    return out


def check_header_consistency(tree: SpatialTree, records, grid: Grid) -> None:
    """The (word, cell) header read off the tree equals the counts taken
    from the in-box records, entry for entry, and ``mine_tree`` counts
    one header entry each; the nodes of a word are distinct and hold it.
    The header's own layout holds too: one run per rank, each strictly
    ascending in (leaf, node), of positive counts of nodes of that rank,
    with every node but the root in exactly one run."""
    start = tree.head_start
    assert len(start) == len(tree.words) + 1 and start[0] == 0
    assert start[-1] == len(tree.head_leaf) == len(tree.head_node) == len(tree.head_count)
    seen = []
    for r in range(len(tree.words)):
        lo, hi = start[r], start[r + 1]
        assert lo <= hi, r
        run = list(zip(tree.head_leaf[lo:hi], tree.head_node[lo:hi]))
        assert all(a < b for a, b in zip(run, run[1:])), r
        assert all(count >= 1 for count in tree.head_count[lo:hi]), r
        assert all(tree.rank_of[node] == r for _, node in run), r
        seen.extend(set(node for _, node in run))
    assert sorted(seen) == list(range(1, len(tree.rank_of)))
    want = record_cell_counts(records, grid, tree.words)
    assert tree_cell_totals(tree) == want
    # Above every count, mining visits only the root cell of each word.
    raw, header_entries = mine_tree(tree, [len(records) + 1] * (tree.height + 1))
    assert found_tuples(raw) == [] and header_entries == len(want)
    for wid in tree.words.order:
        nodes = tree.nodes_of(wid)
        assert len(nodes) == len(set(nodes)), wid
        assert all(node_word(tree, n) == wid for n in nodes), wid


def check_prefix_order(tree: SpatialTree) -> None:
    """Ranks strictly increase along every root-to-node path."""

    def walk(node, prev):
        for child in kids[node]:
            r = tree.rank_of[child]
            assert r > prev, child
            walk(child, r)

    kids = children(tree)
    walk(0, -1)


def check_upward_closure(found: dict, height: int) -> None:
    """A pattern at level > 0 implies the same wordset at the parent cell."""
    for (words, level, code), count in found.items():
        if level == 0:
            continue
        parent = (words, level - 1, code >> 2)
        assert parent in found, (words, level, code)
        assert found[parent] >= count, (words, level, code)


def check_subset_closure(found: dict) -> None:
    """Every nonempty subset of a found pattern is found in the same cell."""
    for (words, level, code), count in found.items():
        if len(words) == 1:
            continue
        for w in words:
            sub = (words - {w}, level, code)
            assert sub in found, (words, level, code, w)
            assert found[sub] >= count, (words, level, code, w)


def check_no_duplicates(patterns) -> None:
    keys = [(p.words, p.gid.level, p.gid.code) for p in patterns]
    assert len(keys) == len(set(keys))


# --- reference growth over {path: weight} bases ------------------------------
#
# The horizontal miner that growth used before its vertical one, kept as the
# differential reference. A base is a ``{path: weight}`` dict: equal
# paths merged, items below the minimum support dropped. Growth takes,
# for each item of a base, the prefixes in front of it as the item's own
# conditional base and recurses (H-Mine style, Pei et al., ICDM 2001).

Base = dict[tuple[int, ...], int]


def path_base(paths: Sequence[tuple[tuple[int, ...], int]], minsup: int) -> Base:
    """The ``{path: weight}`` base of (path, weight) pairs: items whose
    summed weight misses ``minsup`` are dropped and equal paths merged."""
    totals: dict[int, int] = {}
    for path, weight in paths:
        if weight <= 0:
            raise ValueError(f"path weight must be positive, got {weight}")
        for item in path:
            if item in totals:
                totals[item] += weight
            else:
                totals[item] = weight
    keep = {item for item, total in totals.items() if total >= minsup}
    pruned = len(keep) < len(totals)
    base: Base = {}
    for path, weight in paths:
        if pruned:
            path = tuple([item for item in path if item in keep])
        if path in base:
            base[path] += weight
        elif path:
            base[path] = weight
    return base


def bit_base(paths: Sequence[tuple[tuple[int, ...], int]],
             minsup: int) -> list[tuple[int, int, int]]:
    """The vertical base of (path, weight) pairs in one order, as
    ``spatial_mining`` uses it: pair ``i`` as the ``weight`` bits after
    those of the pairs before it, items whose summed weight misses
    ``minsup`` dropped, ``(item, tidset, support)`` in descending item
    order."""
    totals: dict[int, int] = {}
    for path, weight in paths:
        if weight <= 0:
            raise ValueError(f"path weight must be positive, got {weight}")
        for item in path:
            totals[item] = totals.get(item, 0) + weight
    keep = {item for item, total in totals.items() if total >= minsup}
    if not keep:
        return []
    size = (sum([weight for _, weight in paths]) + 7) >> 3
    tids = {item: bytearray(size) for item in keep}
    for b, path in enumerate(chain.from_iterable(starmap(repeat, paths))):  # once per record
        for item in path:
            if item in tids:
                tids[item][b >> 3] |= 1 << (b & 7)
    return [(item, int.from_bytes(tids[item], "little"), totals[item])
            for item in sorted(keep, reverse=True)]


def path_growth(base: Base, minsup: int) -> dict[frozenset[int], int]:
    """All itemsets with support >= minsup, mapped to their exact support."""
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")
    out: dict[frozenset[int], int] = {}

    def walk(b: Base, suffix: frozenset[int]) -> None:
        # Each item's support in ``b`` and the non-empty prefixes in front of it.
        totals: dict[int, int] = {}
        prefixes: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for path, weight in b.items():
            for pos, item in enumerate(path):
                if item in totals:
                    totals[item] += weight
                else:
                    totals[item] = weight
                    prefixes[item] = []
                if pos:
                    prefixes[item].append((path[:pos], weight))
        for item, total in totals.items():
            if total < minsup:
                continue
            items = suffix | {item}
            out[items] = total
            if prefixes[item]:
                cond = path_base(prefixes[item], minsup)
                if cond:
                    walk(cond, items)

    walk(base, frozenset())
    return out


# --- per-cell reference mining, composed step by step ----------------------


class UnknownEntry(SpatialFpError):
    """A word that is not part of the structure being queried."""


def mine_patterns(tree: SpatialTree, sigmas) -> Patterns:
    """``mine_tree`` plus the canonical sort, as ``engine.mine`` does it."""
    return canonical(mine_tree(tree, sigmas)[0], tree.words)


def prefix_path(tree: SpatialTree, node: int) -> tuple[int, ...]:
    """The ranks above ``node``, root end first."""
    path: list[int] = []
    up = tree.parent_of[node]
    while up:
        path.append(tree.rank_of[up])
        up = tree.parent_of[up]
    return tuple(reversed(path))


def rank_paths(tree: SpatialTree, r: int) -> list[tuple[tuple[int, ...], int]]:
    """Rank ``r``'s header entries as (prefix path, count) pairs, in
    header order: one bit per record of its base, in this order."""
    run = slice(tree.head_start[r], tree.head_start[r + 1])
    return [(prefix_path(tree, node), count)
            for node, count in zip(tree.head_node[run], tree.head_count[run])]


def reference_bases(tree: SpatialTree, floor: int) -> list[tuple[int, list]]:
    """``(rank, base)`` for every rank, ascending, whose records with a
    non-empty prefix path reach ``floor``, each base ``bit_base`` of the
    rank's prefix paths."""
    out = []
    for r in range(len(tree.words)):
        paths = rank_paths(tree, r)
        if sum(count for path, count in paths if path) >= floor:
            out.append((r, bit_base(paths, floor)))
    return out


def reference_cells(tree: SpatialTree, sigmas) -> tuple[list[tuple[int, int, int, int, int]], int]:
    """``frequent_cells``'s ``(rank, level, code, lo, hi)`` as the
    root-down search found them, rank by rank in reverse order, a child
    cell visited only while its parent's total reaches the smallest sigma
    below it; and the number of (word, leaf) header entries."""
    height, start = tree.height, tree.head_start
    reach = [min(sigmas[level + 1:]) for level in range(height)]
    found, header_entries = [], 0
    for r in range(len(tree.words) - 1, -1, -1):
        run = slice(start[r], start[r + 1])
        leaves = tree.head_leaf[run].tolist()
        if not leaves:
            continue
        acc = [0, *accumulate(tree.head_count[run])]
        header_entries += len(set(leaves))
        cells = [(0, 0, 0, len(leaves))]
        while cells:
            level, code, lo, hi = cells.pop()
            total = acc[hi] - acc[lo]
            if total >= sigmas[level]:
                found.append((r, level, code, acc[lo], acc[hi]))
            if level < height and total >= reach[level]:
                shift = 2 * (height - level - 1)
                while lo < hi:
                    child = leaves[lo] >> shift
                    cut = lo
                    while cut < hi and leaves[cut] >> shift == child:
                        cut += 1
                    if acc[cut] - acc[lo] >= reach[level]:
                        cells.append((level + 1, child, lo, cut))
                    lo = cut
    return found, header_entries


def canonical_patterns(raw, words: WordTable) -> list[SpatialPattern]:
    """The reference for ``canonical``: ``(ranks, level, code, count)``
    tuples, ranks in any order, turned into a list of pattern objects in
    canonical order (level descending, then cell, size and ranks), one
    ``Gid`` per cell."""
    rows = sorted((-level, code, len(ranks), tuple(sorted(ranks)), count)
                  for ranks, level, code, count in raw)
    order, gid, out = words.order, None, []
    for neg_level, code, _, ranks, count in rows:
        if gid is None or code != gid.code or -neg_level != gid.level:
            gid = Gid(-neg_level, code)
        out.append(SpatialPattern(frozenset([order[r] for r in ranks]), gid, count))
    return out


# --- pattern columns, built and read back one pattern at a time -------------


def found_columns(raw) -> Found:
    """``(ranks, level, code, count)`` tuples, ranks in any order, as
    ``mine_tree`` returns them: per size, ranks ascending in one row per
    pattern, each column of the narrowest unsigned type that holds it."""
    def narrow(values, shape):
        values = np.array(values, np.uint64).reshape(shape)
        return values.astype(np.min_scalar_type(values.max(initial=0)))

    out = []
    for size in range(1, max((len(ranks) for ranks, *_ in raw), default=1) + 1):
        rows = [(sorted(ranks), *rest) for ranks, *rest in raw if len(ranks) == size]
        ranks, level, code, count = zip(*rows) if rows else ((),) * 4
        out.append((narrow(ranks, (len(rows), size)),
                    *(narrow(column, len(rows)) for column in (level, code, count))))
    return out


def found_tuples(found: Found) -> list[tuple[tuple[int, ...], int, int, int]]:
    """``mine_tree``'s columns as ``(ranks, level, code, count)`` tuples."""
    return [(tuple(ranks), level, code, count) for columns in found
            for ranks, level, code, count in zip(*(c.tolist() for c in columns))]


def as_result(patterns, words: WordTable) -> Patterns:
    """Pattern objects as the blocks of a ``Patterns`` result, in the
    order given, for feeding the writer hand-made input."""
    rank, blocks = words.rank, []
    sizes = [([], []) for _ in range(max((len(p.words) for p in patterns), default=0))]
    for p in patterns:
        head = (p.gid.level, p.gid.code, len(p.words))
        if not blocks or blocks[-1][:3] != head:
            blocks.append((*head, 0))
        blocks[-1] = (*head, blocks[-1][3] + 1)
        sizes[len(p.words) - 1][0].append(sorted(rank[w] for w in p.words))
        sizes[len(p.words) - 1][1].append(p.count)
    return Patterns([(np.array(ranks, np.int64).reshape(len(counts), size),
                      np.array(counts, np.int64))
                     for size, (ranks, counts) in enumerate(sizes, 1)], blocks, words)


def bases_as_ints(chunks) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """``conditional_bases``' chunks as ``(rank, base)`` pairs, ascending,
    each base ``(item, tidset, support)`` in its order, every tidset one
    int read from the chunk's words, least significant first, and its
    support the records in that tidset."""
    out = []
    for bases in chunks:
        ends = [*bases.at.tolist()[1:], len(bases.bits)]
        groups = list(zip(bases.rank.tolist(), bases.item.tolist(), bases.at.tolist(), ends))
        for r in bases.ranks.tolist():
            tidsets = [(item, int.from_bytes(bases.bits[at:end].tobytes(), "little"))
                       for rank, item, at, end in groups if rank == r]
            out.append((r, [(item, tids, tids.bit_count()) for item, tids in tidsets]))
    return out


def grow_cells(base: list[tuple[int, int, int]],
               cells: Sequence[tuple[int, int, int]]) -> list[list[tuple[tuple[int, ...], int]]]:
    """Every itemset of ``base`` (a ``bit_base`` of items below 2**16 - 1)
    frequent in each of ``cells``, ``(lo, hi, minsup)``: bits ``[lo,
    hi)`` of the base and their threshold. The base is one chunk of one
    rank above its items, and ``tree_from_weighted_paths`` and
    ``fp_growth`` run on it as ``mine_tree`` runs them. One list per
    cell of (items ascending, support) pairs, by size."""
    top = 2 ** 16 - 1
    span = max([(hi + 63) >> 6 for _, hi, _ in cells]
               + [(tids.bit_length() + 63) >> 6 for _, tids, _ in base])
    bits = np.zeros(len(base) * span + 1, np.uint64)
    for g, (_, tids, _) in enumerate(base):
        bits[g * span:(g + 1) * span] = np.frombuffer(tids.to_bytes(span * 8, "little"), "<u8")
    bases = Bases(np.array([top]), np.full(len(base), top),
                  np.array([item for item, _, _ in base], np.int64), np.arange(len(base)) * span,
                  bits)
    # A cell of no records holds no pattern, and ``mine_tree`` makes none.
    live = [i for i, (lo, hi, _) in enumerate(cells) if lo < hi]
    lo, hi, sigma = (np.array([cells[i][k] for i in live], np.int64) for k in range(3))
    members = tree_from_weighted_paths(bases, np.full(len(live), top, np.uint16), lo, hi, sigma)
    out = [[] for _ in cells]
    for cell, ranks, count, rows in members.values():
        for level in [(ranks, cell, count), *fp_growth(rows, ranks, cell, sigma)]:
            for items, c, n in zip(*(column.tolist() for column in level)):
                assert items[-1] == top and items == sorted(items)
                out[live[c]].append((tuple(items[:-1]), n))
    for found in out:
        found.sort(key=lambda pair: len(pair[0]))
    return out


def level_table(tree: SpatialTree, level: int, sigma: int) -> dict[tuple[int, int], int]:
    """The tree's (word, leaf) totals aggregated to ``level``, keyed (wid,
    code), entries below sigma dropped."""
    shift = 2 * (tree.height - level)
    agg: dict[tuple[int, int], int] = {}
    for (wid, cell), count in tree_cell_totals(tree).items():
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


def cell_conditional_tree(tree: SpatialTree, wid: int, gid: Gid,
                          sigma: int) -> Base:
    """Conditional base of ``wid`` restricted to cell ``gid``, over word ids.

    Each tree node holding ``wid`` contributes its prefix path weighted
    by the node's leaf counts that fall inside ``gid``; words whose
    conditional total misses sigma are pruned.
    """
    if wid not in tree.words.rank:
        raise UnknownEntry(f"word {wid} is not retained in this tree")
    shift = 2 * (tree.height - gid.level)
    paths = []
    for node in tree.nodes_of(wid):
        weight = sum(count for leaf, count in node_cells(tree, node).items()
                     if leaf >> shift == gid.code)
        if weight:
            paths.append((node_path(tree, node)[:-1], weight))
    return path_base(paths, sigma)


def ordered_paths(transactions, minsup: int) -> list[tuple[tuple[int, ...], int]]:
    """Each transaction as a weight-1 path of its items that reach
    ``minsup``, in the global order (descending count, ties ascending item)."""
    txs = [set(t) for t in transactions]
    counts: dict[int, int] = {}
    for t in txs:
        for wid in t:
            counts[wid] = counts.get(wid, 0) + 1
    order = sorted((w for w, c in counts.items() if c >= minsup),
                   key=lambda w: (-counts[w], w))
    rank = {w: i for i, w in enumerate(order)}
    return [(tuple(sorted((w for w in t if w in rank), key=rank.__getitem__)), 1)
            for t in txs]


def build_fp_tree(transactions, minsup: int) -> Base:
    """Two passes over a transaction list: count, order, filter, merge."""
    return path_base(ordered_paths(transactions, minsup), minsup)


def growth_pairs(base: list[tuple[int, int, int]], minsup: int) -> list[tuple[tuple[int, ...], int]]:
    """``grow_cells`` over one cell of every bit of ``base``: (items,
    support) pairs, items ascending, by size."""
    hi = max((tids.bit_length() for _, tids, _ in base), default=0)
    return grow_cells(base, [(0, hi, minsup)])[0]


def as_supports(itemsets) -> dict[frozenset[int], int]:
    """(items, support) pairs keyed by item set."""
    return {frozenset(items): support for items, support in itemsets}


# --- reference record parser -------------------------------------------------


def reference_parse_record_line(line: str, seq: int, vocab: Vocabulary,
                                stopwords: frozenset[str]) -> GeoRecord:
    """``formats.parse_record_line`` before its fast paths, with stopword
    filtering and interning inline: every check in order, fresh word ids
    in sorted order of the record's whole wordset."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record line is not an object")

    lon = obj.get("lon")
    lat = obj.get("lat")
    if not isinstance(lon, (int, float)) or isinstance(lon, bool) or not math.isfinite(lon):
        raise MalformedRecord("missing or non-finite lon")
    if not isinstance(lat, (int, float)) or isinstance(lat, bool) or not math.isfinite(lat):
        raise MalformedRecord("missing or non-finite lat")
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise MalformedRecord(f"coordinates ({lon}, {lat}) outside valid range")

    words = obj.get("words")
    if words is not None:
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise MalformedRecord("words must be an array of strings")
        tokens = [w.lower() for w in words]
    else:
        text = obj.get("text")
        if not isinstance(text, str):
            raise MalformedRecord("record needs a text or words field")
        tokens = tokenize(text)
    if any(0xD800 <= ord(c) <= 0xDFFF for t in tokens for c in t):
        raise MalformedRecord("words hold a lone surrogate")

    oid = obj.get("id")
    if oid is None:
        oid = str(seq)
    elif not isinstance(oid, str):
        oid = str(oid)

    wordset = frozenset(vocab.intern(w) for w in sorted({t for t in tokens if t not in stopwords}))
    return GeoRecord(oid, wordset, GeoPoint(float(lon), float(lat)))


# --- edge inputs, mined in a 0,0,4,4 box ----------------------------------
#
# name -> (records as (words, (lon, lat)), height, sigma, output rows,
# summary counts). Each leaves some array of the miner empty.

_NEAR, _EAST, _NORTH, _FAR = (1.0, 1.0), (3.0, 1.0), (1.0, 3.0), (9.0, 9.0)
_EMPTY_SUMMARY = {"records read": 0, "skipped out-of-box": 0, "records mined": 0,
                  "distinct words": 0, "retained words": 0, "word-cell entries": 0,
                  "patterns total": 0}
EDGE_CASES = {
    "empty_file": ([], 1, 2, [], _EMPTY_SUMMARY),
    "all_out_of_box": ([(["a", "b"], _FAR)] * 3, 1, 2, [],
                       {**_EMPTY_SUMMARY, "records read": 3, "skipped out-of-box": 3}),
    "no_word_retained": (
        [(["a", "b"], _NEAR), (["c"], _EAST), (["a"], (3.0, 3.0))], 1, 3, [],
        {**_EMPTY_SUMMARY, "records read": 3, "records mined": 3, "distinct words": 3}),
    # Every node is a root child: no word has a conditional base.
    "one_word_records": (
        [(["a"], _NEAR)] * 3 + [(["b"], _EAST)] * 2 + [(["b"], _NORTH)], 1, 2,
        [{"words": ["a"], "gid": "00", "level": 1, "count": 3},
         {"words": ["b"], "gid": "01", "level": 1, "count": 2},
         {"words": ["a"], "gid": "", "level": 0, "count": 3},
         {"words": ["b"], "gid": "", "level": 0, "count": 3}],
        {"records read": 6, "skipped out-of-box": 0, "records mined": 6,
         "distinct words": 2, "retained words": 2, "word-cell entries": 3,
         "patterns total": 4}),
    # b occurs twice, one short of sigma.
    "word_just_under_floor": (
        [(["a", "b"], _NEAR)] * 2 + [(["a"], _NEAR)], 1, 3,
        [{"words": ["a"], "gid": "00", "level": 1, "count": 3},
         {"words": ["a"], "gid": "", "level": 0, "count": 3}],
        {"records read": 3, "skipped out-of-box": 0, "records mined": 3,
         "distinct words": 2, "retained words": 1, "word-cell entries": 1,
         "patterns total": 2}),
    "height_0": (
        [(["a", "b"], _NEAR)] * 2 + [(["a"], (3.0, 3.0)), (["b", "c"], _EAST)], 0, 2,
        [{"words": ["a"], "gid": "", "level": 0, "count": 3},
         {"words": ["b"], "gid": "", "level": 0, "count": 3},
         {"words": ["a", "b"], "gid": "", "level": 0, "count": 2}],
        {"records read": 4, "skipped out-of-box": 0, "records mined": 4,
         "distinct words": 3, "retained words": 2, "word-cell entries": 2,
         "patterns total": 3}),
}
EDGE_BOX = BoundingBox(0.0, 0.0, 4.0, 4.0)


def write_edge_corpus(path, records) -> None:
    """One JSON line per ``(words, (lon, lat))`` record."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (words, (lon, lat)) in enumerate(records):
            fh.write(json.dumps({"id": f"r{i}", "words": words, "lon": lon, "lat": lat}) + "\n")


# --- command line helpers ----------------------------------------------------


def read_patterns(path: str) -> list[dict]:
    """Parse a results file back into dicts."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


def run_cli(*args, env=None):
    """Run the installed CLI in a subprocess and capture its output."""
    return subprocess.run([sys.executable, "-m", "spatialfp", *map(str, args)],
                          capture_output=True, text=True, env=env)


def summary_fields(stdout: str) -> dict[str, str]:
    """Parse "key: value" stdout lines into a dict (last wins)."""
    out = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def write_reference_corpus(path) -> None:
    """The four-record database with words named a, b, c."""
    names = {A: "a", B: "b", C: "c"}
    from spatialfp.formats import write_corpus

    write_corpus(str(path), reference_records(), names.__getitem__)
