"""Frequent-pattern growth over conditional bases, with no tree nodes.

A conditional base is a ``{path: weight}`` dict: each path is a tuple of
items in one fixed order (the miner's items are word ranks, ascending),
items below the minimum support are dropped, and equal paths are merged
by summing their weights. Merging equal paths is the prefix sharing an
FP-tree gets from its nodes (Han, Pei & Yin, SIGMOD 2000), kept here as
plain tuples in the style of H-Mine (Pei et al., ICDM 2001). Growth
takes, for each item of a base, the prefixes in front of it as the
item's own conditional base and recurses, which enumerates every
itemset meeting the minimum support exactly once.
"""

from __future__ import annotations

from typing import Sequence

Base = dict[tuple[int, ...], int]


def tree_from_weighted_paths(paths: Sequence[tuple[tuple[int, ...], int]],
                             minsup: int) -> Base:
    """The conditional base of (path, weight) pairs: items whose summed
    weight misses ``minsup`` are dropped and equal paths merged.

    Paths must all follow one order; dropping items preserves it. The
    name predates bases. The benchmark's tracer counts conditional bases
    through it, so renaming it waits for in-program spans (ROADMAP
    item 1).
    """
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


def fp_growth(base: Base, minsup: int) -> dict[frozenset[int], int]:
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
                cond = tree_from_weighted_paths(prefixes[item], minsup)
                if cond:
                    walk(cond, items)

    walk(base, frozenset())
    return out

