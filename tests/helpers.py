"""Shared fixtures-in-code: reference databases, fuzz instances, invariants."""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import combinations

from spatialfp.datagen import GenConfig, PlantedPattern, generate
from spatialfp.errors import SpatialFpError
from spatialfp.fptree import Base, tree_from_weighted_paths
from spatialfp.grid import BoundingBox, GeoPoint, Gid, Grid, ancestor_at, encode, gid_str
from spatialfp.spatial_mining import canonical, mine_tree
from spatialfp.spatial_tree import (CellTable, ScanStats, SpatialTree, WordTable,
                                   insert_record, scan_counts, sorted_records)
from spatialfp.text import GeoRecord

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


def build_tree(source, sigma: int, grid: Grid,
               stats: ScanStats | None = None) -> SpatialTree:
    """Both passes over one read of ``source``, finalized, without growth."""
    words, header, cols = scan_counts(source, sigma, grid, stats)
    tree = SpatialTree(words, header, grid.height)
    for ranks, leaf in sorted_records(cols, words):
        insert_record(tree, ranks, leaf)
    tree.finalize()
    return tree


# --- structural invariant checks --------------------------------------------


def node_cells(tree: SpatialTree, node: int) -> dict[int, int]:
    """One node's leaf-cell counts as a dict."""
    lo, hi = tree.cell_start[node], tree.cell_start[node + 1]
    return dict(zip(tree.cell_leaf[lo:hi], tree.cell_count[lo:hi]))


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


def tree_equal(a: SpatialTree, b: SpatialTree) -> bool:
    """Structural equality: same shape, same per-node cell counts.

    Nodes are numbered in depth-first order of the sorted records, so
    equal trees have equal arrays.
    """
    return (a.height == b.height and a.words.counts == b.words.counts
            and a.rank_of == b.rank_of and a.parent_of == b.parent_of
            and a.cell_start == b.cell_start and a.cell_leaf == b.cell_leaf
            and a.cell_count == b.cell_count)


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


def check_header_consistency(tree: SpatialTree) -> None:
    """Each (word, cell) header count equals that cell's count summed over
    the word's nodes, and the nodes of a word are distinct and hold it."""
    entries = list(header_items(tree.header, tree.words.order))
    assert len(entries) == len(tree.header)  # no entry of a dropped word
    for wid, cell, count in entries:
        node_sum = sum(node_cells(tree, n).get(cell, 0) for n in tree.nodes_of(wid))
        assert node_sum == count, (wid, cell)
    node_pairs = set()
    for wid in tree.words.order:
        nodes = tree.nodes_of(wid)
        assert len(nodes) == len(set(nodes)), wid
        assert all(node_word(tree, n) == wid for n in nodes), wid
        node_pairs.update((wid, cell) for n in nodes for cell in node_cells(tree, n))
    assert node_pairs == {(wid, cell) for wid, cell, _ in entries}


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


# --- per-cell reference mining, composed step by step ----------------------


class UnknownEntry(SpatialFpError):
    """A word that is not part of the structure being queried."""


def mine_patterns(tree: SpatialTree, sigmas) -> list:
    """``mine_tree`` plus the canonical sort, as ``engine.mine`` does it."""
    return canonical(mine_tree(tree, sigmas), tree.words)


def header_items(header: CellTable, wids):
    """(wid, cell, count) for each header entry of the words ``wids``."""
    for wid in wids:
        for cell, count in header.cells_of(wid).items():
            yield wid, cell, count


def level_table(tree: SpatialTree, level: int, sigma: int) -> dict[tuple[int, int], int]:
    """The tree's header counts aggregated to ``level``, keyed (wid, code),
    entries below sigma dropped."""
    shift = 2 * (tree.height - level)
    agg: dict[tuple[int, int], int] = {}
    for wid, cell, count in header_items(tree.header, tree.words.order):
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
    if wid not in tree.words:
        raise UnknownEntry(f"word {wid} is not retained in this tree")
    shift = 2 * (tree.height - gid.level)
    paths = []
    for node in tree.nodes_of(wid):
        weight = sum(count for leaf, count in node_cells(tree, node).items()
                     if leaf >> shift == gid.code)
        if weight:
            paths.append((node_path(tree, node)[:-1], weight))
    return tree_from_weighted_paths(paths, sigma)


def build_fp_tree(transactions, minsup: int) -> Base:
    """Two passes over a transaction list: count, order, filter, merge.

    Paths hold the transactions' own items in the global order
    (descending count, ties ascending item).
    """
    txs = [set(t) for t in transactions]
    counts: dict[int, int] = {}
    for t in txs:
        for wid in t:
            counts[wid] = counts.get(wid, 0) + 1
    order = sorted((w for w, c in counts.items() if c >= minsup),
                   key=lambda w: (-counts[w], w))
    rank = {w: i for i, w in enumerate(order)}
    return tree_from_weighted_paths(
        [(tuple(sorted((w for w in t if w in rank), key=rank.__getitem__)), 1)
         for t in txs], minsup)


# --- command line helpers ----------------------------------------------------


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
