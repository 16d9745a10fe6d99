"""Brute-force reference miner used to verify the tree-based miner.

Deliberately independent: level-wise apriori over per-cell transaction
lists, sharing no code with the spatial_tree, spatial_mining and engine
modules beyond leaf cell encoding. Intended for small instances only.
"""

from __future__ import annotations

from collections import Counter
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


def apriori(transactions: Sequence[frozenset[int]], sigma: int) -> dict[frozenset[int], int]:
    """All itemsets with support >= sigma via level-wise candidate generation."""
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    singles = Counter()
    for t in transactions:
        singles.update(t)
    current = {frozenset((w,)): c for w, c in singles.items() if c >= sigma}
    out = dict(current)
    while current:
        prev = set(current)
        tuples = sorted(tuple(sorted(s)) for s in current)
        candidates: list[frozenset[int]] = []
        for i, a in enumerate(tuples):
            for j in range(i + 1, len(tuples)):
                b = tuples[j]
                if a[:-1] != b[:-1]:
                    break  # sorted list: no further shared prefix
                cand = frozenset(a) | {b[-1]}
                if all(cand - {w} in prev for w in cand):
                    candidates.append(cand)
        counts = {c: 0 for c in candidates}
        for t in transactions:
            for c in candidates:
                if c <= t:
                    counts[c] += 1
        current = {c: n for c, n in counts.items() if n >= sigma}
        out.update(current)
    return out


def reference_patterns(records: Sequence[GeoRecord], grid: Grid,
                       sigmas: Sequence[int]) -> dict[PatternKey, int]:
    """Per-level, per-cell apriori over the raw records.

    ``sigmas`` is indexed by level (0 = whole box .. height = leaf).
    """
    out: dict[PatternKey, int] = {}
    for level in range(grid.height + 1):
        for code, txs in group_by_cell(records, grid, level).items():
            for itemset, count in apriori(txs, sigmas[level]).items():
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
