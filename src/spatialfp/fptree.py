"""Frequent-itemset growth inside one conditional base, over int tidsets.

The SFP-tree, its (word, cell) header and one conditional base per
frequent (word, cell), with no record rescans, are the paper's; only the
non-spatial miner inside a base is an Eclat (Zaki, TKDE 2000) rather
than FP-growth. A base's paths hold items (word ranks) in one order,
each weighted by the records it stands for. Items below the minimum
support are dropped and each (path, weight) pair becomes ``weight``
consecutive bits, one per record, so a cell's records, a bit range, are
that cell's base. An item's tidset is the int of its records' bits, and
its support is the tidset's ``bit_count()``. An extension's tidset is
the AND of two siblings' tidsets. Siblings are kept in descending item
order, set once when a base is built, so that each extension adds an
item smaller than those it joins: growth packs an itemset into one int
by placing each new item one slot above the last, and sorts nothing.

The benchmark's tracer times base builds and growth by wrapping
``tree_from_weighted_paths`` and ``fp_growth`` where ``spatial_mining``
looks them up, so they keep the FP-tree miner's names (ROADMAP item 1).
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import Sequence

Base = list[tuple[int, int, int]]  # (item, tidset, support), descending item


def tree_from_weighted_paths(paths: Sequence[tuple[tuple[int, ...], int]],
                             minsup: int) -> Base:
    """The base of (path, weight) pairs in one order, pair ``i`` as the
    ``weight`` bits after those of the pairs before it; empty, so falsy,
    once no item's summed weight reaches ``minsup``."""
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
    if not keep:
        return []
    # Each int is built once, from a buffer of its bits: an ``|=`` per
    # path would copy the growing int, quadratic in the paths.
    size = (sum([weight for _, weight in paths]) + 7) >> 3
    tids = {item: bytearray(size) for item in keep}
    for b, path in enumerate(chain.from_iterable(starmap(repeat, paths))):  # once per record
        byte, bit = b >> 3, 1 << (b & 7)
        for item in path:
            if item in tids:
                tids[item][byte] |= bit
    return [(item, int.from_bytes(tids[item], "little"), totals[item])
            for item in sorted(keep, reverse=True)]


def cell_base(base: Base, lo: int, hi: int, minsup: int) -> Base:
    """The base of records ``[lo, hi)`` of ``base``, renumbered from 0,
    keeping the items whose support there reaches ``minsup``, in order."""
    mask = (1 << (hi - lo)) - 1
    return [(item, bits, support) for item, tids, _ in base
            if (support := (bits := tids >> lo & mask).bit_count()) >= minsup]


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
