"""Frequent-pattern growth over conditional bases, with no tree nodes.

A conditional base is a ``{path: weight}`` dict: each path is a tuple of
word ids in one fixed order (the global order: descending frequency,
ties ascending word id), words below the minimum support are dropped,
and equal paths are merged by summing their weights. Merging equal
paths is the prefix sharing an FP-tree gets from its nodes (Han, Pei &
Yin, SIGMOD 2000), kept here as plain tuples in the style of H-Mine
(Pei et al., ICDM 2001). Growth takes, for each word of a base, the
prefixes in front of it as the word's own conditional base and
recurses, which enumerates every itemset meeting the minimum support
exactly once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Base = dict[tuple[int, ...], int]


def tree_from_weighted_paths(paths: Sequence[tuple[tuple[int, ...], int]],
                             minsup: int) -> Base:
    """The conditional base of (path, weight) pairs: words whose summed
    weight misses ``minsup`` are dropped and equal paths merged.

    Paths must all follow one order; dropping words preserves it. The
    name predates bases. The benchmark's tracer counts conditional bases
    through it, so renaming it waits for in-program spans (ROADMAP
    item 1).
    """
    totals: dict[int, int] = {}
    for path, weight in paths:
        if weight <= 0:
            raise ValueError(f"path weight must be positive, got {weight}")
        for wid in path:
            if wid in totals:
                totals[wid] += weight
            else:
                totals[wid] = weight
    keep = {wid for wid, total in totals.items() if total >= minsup}
    pruned = len(keep) < len(totals)
    base: Base = {}
    for path, weight in paths:
        if pruned:
            path = tuple([wid for wid in path if wid in keep])
        if path in base:
            base[path] += weight
        elif path:
            base[path] = weight
    return base


def fp_growth(base: Base, minsup: int) -> dict[frozenset[int], int]:
    """All itemsets with support >= minsup, mapped to their exact support."""
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")
    out: dict[frozenset[int], int] = {}

    def walk(b: Base, suffix: frozenset[int]) -> None:
        # Each word's support in ``b`` and the non-empty prefixes in front of it.
        totals: dict[int, int] = {}
        prefixes: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for path, weight in b.items():
            for pos, wid in enumerate(path):
                if wid in totals:
                    totals[wid] += weight
                else:
                    totals[wid] = weight
                    prefixes[wid] = []
                if pos:
                    prefixes[wid].append((path[:pos], weight))
        for wid, total in totals.items():
            if total < minsup:
                continue
            items = suffix | {wid}
            out[items] = total
            if prefixes[wid]:
                cond = tree_from_weighted_paths(prefixes[wid], minsup)
                if cond:
                    walk(cond, items)

    walk(base, frozenset())
    return out


def build_fp_tree(transactions: Iterable[Iterable[int]], minsup: int) -> Base:
    """Two passes over a transaction list: count, order, filter, merge."""
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
