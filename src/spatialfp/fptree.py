"""Frequent-itemset growth inside one conditional base, over int tidsets.

The SFP-tree, its (word, cell) header and one conditional base per
frequent (word, cell), with no record rescans, are the paper's; only the
non-spatial miner inside a base is an Eclat (Zaki, TKDE 2000) rather
than FP-growth. A word's base has one bit per record through its nodes,
in header order, so a cell's records, a bit range, are that cell's base.
An item (a word rank above the word) has as its tidset the int of the
bits of the records whose path holds it, and its support is the
tidset's ``bit_count()``. ``spatial_mining`` sets those bits for every
base as array operations, dropping the items below the minimum support;
``tree_from_weighted_paths`` turns one word's packed rows into ints. An
extension's tidset is the AND of two siblings' tidsets. Siblings are
kept in descending item order, set once when a base is built, so that
each extension adds an item smaller than those it joins: growth packs an
itemset into one int by placing each new item one slot above the last,
and sorts nothing.

The benchmark's tracer times base builds and growth by wrapping
``tree_from_weighted_paths`` and ``fp_growth`` where ``spatial_mining``
looks them up, so they keep the FP-tree miner's names (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Iterable

Base = list[tuple[int, int, int]]  # (item, tidset, support), descending item


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
