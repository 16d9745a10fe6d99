"""Reference miner used to verify the tree-based miner.

Deliberately independent: a depth-first tidset search (Eclat, Zaki,
TKDE 2000) in each cell at each level, sharing no code with the
spatial_tree, spatial_mining and engine modules beyond leaf cell encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import PointOutOfBounds
from .grid import Grid, encode
from .text import GeoRecord

# A mined pattern key: (wordset, level, cell code).
PatternKey = tuple[frozenset[int], int, int]


def group_by_cell(records: Iterable[GeoRecord], grid: Grid,
                  level: int) -> dict[int, list[frozenset[int]]]:
    """Wordsets, as frozensets of any iterable ``words``, bucketed by
    their level-``level`` cell; out-of-box records skipped."""
    shift = 2 * (grid.height - level)
    out: dict[int, list[frozenset[int]]] = {}
    for rec in records:
        try:
            leaf = encode(rec.point, grid)
        except PointOutOfBounds:
            continue
        out.setdefault(leaf.code >> shift, []).append(frozenset(rec.words))
    return out


def frequent_itemsets(transactions: Sequence[frozenset[int]], sigma: int) -> dict[frozenset[int], int]:
    """All itemsets with support >= sigma, by a depth-first search over
    tidsets: an int per item, bit ``i`` set when transaction ``i`` holds
    it, so an itemset's support is the popcount of its items' AND."""
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    counts: dict[int, int] = {}
    for t in transactions:
        for w in t:
            counts[w] = counts.get(w, 0) + 1
    # One bytearray per frequent item, then one conversion: ``|=`` per
    # transaction would copy the growing int, quadratic in the transactions.
    bufs = {w: bytearray(len(transactions) // 8 + 1) for w, n in counts.items() if n >= sigma}
    for tid, t in enumerate(transactions):
        for w in bufs.keys() & t:
            bufs[w][tid >> 3] |= 1 << (tid & 7)
    out: dict[frozenset[int], int] = {}
    stack = [(frozenset(), [(w, int.from_bytes(b, "little")) for w, b in bufs.items()])]
    while stack:
        prefix, items = stack.pop()
        for i, (w, tidset) in enumerate(items):
            itemset = prefix | {w}
            out[itemset] = tidset.bit_count()
            stack.append((itemset, [(v, both) for v, other in items[i + 1:]
                                    if (both := tidset & other).bit_count() >= sigma]))
    return out


def reference_patterns(records: Sequence[GeoRecord], grid: Grid,
                       sigmas: Sequence[int]) -> dict[PatternKey, int]:
    """Per-level, per-cell frequent itemsets of the raw records.

    ``sigmas`` is indexed by level (0 = whole box .. height = leaf).
    """
    out: dict[PatternKey, int] = {}
    for level in range(grid.height + 1):
        for code, txs in group_by_cell(records, grid, level).items():
            for itemset, count in frequent_itemsets(txs, sigmas[level]).items():
                out[(itemset, level, code)] = count
    return out


@dataclass
class DiffReport:
    """Symmetric difference plus count mismatches between two pattern maps."""

    only_a: dict[PatternKey, int] = field(default_factory=dict)
    only_b: dict[PatternKey, int] = field(default_factory=dict)
    mismatched: dict[PatternKey, tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.only_a or self.only_b or self.mismatched)

    def lines(self, limit: int = 20) -> list[str]:
        def fmt(key: PatternKey) -> str:
            words, level, code = key
            return f"level={level} cell={code:b} words={sorted(words)}"

        out = []
        for name, entries in (("only in a", self.only_a), ("only in b", self.only_b)):
            for key in sorted(entries, key=_key_order)[:limit]:
                out.append(f"{name}: {fmt(key)} count={entries[key]}")
            if len(entries) > limit:
                out.append(f"{name}: ... {len(entries) - limit} more")
        for key in sorted(self.mismatched, key=_key_order)[:limit]:
            ca, cb = self.mismatched[key]
            out.append(f"count mismatch: {fmt(key)} a={ca} b={cb}")
        if len(self.mismatched) > limit:
            out.append(f"count mismatch: ... {len(self.mismatched) - limit} more")
        return out

    def summary(self) -> str:
        return (f"only_a={len(self.only_a)} only_b={len(self.only_b)} "
                f"mismatched={len(self.mismatched)}")


def _key_order(key: PatternKey):
    words, level, code = key
    return (-level, code, len(words), tuple(sorted(words)))


def compare(a: Mapping[PatternKey, int], b: Mapping[PatternKey, int]) -> DiffReport:
    report = DiffReport()
    for key, count in a.items():
        other = b.get(key)
        if other is None:
            report.only_a[key] = count
        elif other != count:
            report.mismatched[key] = (count, other)
    for key, count in b.items():
        if key not in a:
            report.only_b[key] = count
    return report
