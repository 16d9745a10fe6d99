"""Frequent-itemset growth inside one conditional base, over int tidsets.

The SFP-tree, its (word, cell) header and one conditional base per
frequent (word, cell), with no record rescans, are the paper's; only the
non-spatial miner inside a base is a weighted Eclat (Zaki, TKDE 2000)
rather than FP-growth. A base's paths hold items (word ranks) in one
order, each weighted by the records it stands for. Items below the
minimum support are dropped and each (path, weight) pair becomes one
bit, so a cell's pairs, a bit range, are that cell's base. An item's
tidset is the int of its paths' bits, and the weights are split into
bit planes. An extension's tidset is the AND of two siblings' tidsets;
its support is the sum over the planes of ``(tids & plane).bit_count() << k``.
Siblings are kept in descending item order, set once when a base is
built, so that each extension adds an item smaller than those it joins:
growth packs an itemset into one int by placing each new item one slot
above the last, and sorts nothing.

The benchmark's tracer times base builds and growth by wrapping
``tree_from_weighted_paths`` and ``fp_growth`` where ``spatial_mining``
looks them up, so they keep the FP-tree miner's names (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Sequence


class VerticalBase(list):
    """``(item, tidset, support)`` per kept item, descending item, and
    ``planes``: ``(k, bits of the paths whose weight has bit k set)``."""

    __slots__ = ("planes",)


def tree_from_weighted_paths(paths: Sequence[tuple[tuple[int, ...], int]],
                             minsup: int) -> VerticalBase:
    """The vertical base of (path, weight) pairs in one order, pair ``i`` as
    bit ``i``; empty, so falsy, once no item's summed weight reaches ``minsup``."""
    totals: dict[int, int] = {}
    for path, weight in paths:
        if weight <= 0:
            raise ValueError(f"path weight must be positive, got {weight}")
        for item in path:
            if item in totals:
                totals[item] += weight
            else:
                totals[item] = weight
    base = VerticalBase()
    base.planes = []
    keep = {item for item, total in totals.items() if total >= minsup}
    if not keep:
        return base
    # Each int is built once, from a buffer or a string of its bits: an
    # ``|=`` per path would copy the growing int, quadratic in the paths.
    size = (len(paths) + 7) >> 3
    tids = {item: bytearray(size) for item in keep}
    for b, (path, _) in enumerate(paths):
        byte, bit = b >> 3, 1 << (b & 7)
        for item in path:
            if item in tids:
                tids[item][byte] |= bit
    weights = [weight for _, weight in reversed(paths)]
    base.planes = [(k, plane) for k in range(max(weights).bit_length())
                   if (plane := int("".join(["01"[w >> k & 1] for w in weights]), 2))]
    base.extend([(item, int.from_bytes(tids[item], "little"), totals[item])
                 for item in sorted(keep, reverse=True)])
    return base


def cell_base(base: VerticalBase, lo: int, hi: int, minsup: int) -> VerticalBase:
    """The vertical base of bits ``[lo, hi)`` of ``base``, renumbered from
    0, keeping the items whose support there reaches ``minsup``, in order."""
    mask = (1 << (hi - lo)) - 1
    cell = VerticalBase()
    cell.planes = planes = [(k, bits) for k, plane in base.planes
                            if (bits := plane >> lo & mask)]
    for item, tids, _ in base:
        if tids := tids >> lo & mask:
            support = sum([(tids & plane).bit_count() << k for k, plane in planes])
            if support >= minsup:
                cell.append((item, tids, support))
    return cell


def fp_growth(base: VerticalBase, minsup: int, key: int, shift: int,
              width: int) -> list[list[int]]:
    """All itemsets with support >= minsup, each joined to the suffix
    ``key`` as one int: its items packed ``width`` bits apart from bit
    ``shift`` up, the smallest item highest, OR'ed with its exact support,
    for which the caller keeps the bits below ``key`` and ``shift`` free.
    List ``k`` holds the itemsets of ``k + 1`` items; each appears once."""
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")
    out: list[list[int]] = []
    planes = base.planes

    def walk(key: int, shift: int, depth: int, siblings: list) -> None:
        if depth == len(out):
            out.append([])
        rows = out[depth]
        for i, (item, tids, support) in enumerate(siblings):
            grown = item << shift | key
            rows.append(grown | support)
            ext = []
            for other, other_tids, _ in siblings[i + 1:]:
                both = tids & other_tids
                weight = sum([(both & plane).bit_count() << k for k, plane in planes])
                if weight >= minsup:
                    ext.append((other, both, weight))
            if ext:
                walk(grown, shift + width, depth + 1, ext)

    if base:
        walk(key, shift, 0, base)
    return out
