"""Correctness checker for one ``spatialfp mine`` output, independent of ``src``.

It recomputes from the generator's ground truth, with its own z-order
encode (the program's float formula and max-edge clamping):

- every one-word and two-word pattern at every level, exactly and
  completely;
- every pattern of every size in every cell that has a frequent word
  pair, exactly and completely, against a brute-force enumeration of the
  cell's records (a cell without one can only hold one-word patterns);
- downward closure: every subset of a reported wordset is reported in
  the same cell with at least the same count;
- the run summary's record, word and pattern counts.

Byte identity across runs of one seed is checked by the caller.
"""

from __future__ import annotations

import json
import re
from itertools import combinations

import numpy as np

from corpora import Corpus, Workload

MAX_ERRORS = 20


def leaf_codes(lon: np.ndarray, lat: np.ndarray, wl: Workload) -> tuple[np.ndarray, np.ndarray]:
    """(in-box mask, leaf z-order code) per point."""
    min_lon, min_lat, max_lon, max_lat = wl.bbox
    inside = (min_lon <= lon) & (lon <= max_lon) & (min_lat <= lat) & (lat <= max_lat)
    n = 1 << wl.height
    ix = np.minimum(((lon[inside] - min_lon) / (max_lon - min_lon) * n).astype(np.int64), n - 1)
    iy = np.minimum(((lat[inside] - min_lat) / (max_lat - min_lat) * n).astype(np.int64), n - 1)
    code = np.zeros(len(ix), dtype=np.int64)
    for b in range(wl.height):
        code |= ((ix >> b) & 1) << (2 * b) | ((iy >> b) & 1) << (2 * b + 1)
    leaf = np.full(len(lon), -1, dtype=np.int64)
    leaf[inside] = code
    return inside, leaf


def _pairs(offsets: np.ndarray, words: np.ndarray, recs: np.ndarray):
    """(record, smaller word, larger word) for every word pair in ``recs``."""
    lens = np.diff(offsets)[recs]
    out_r, out_a, out_b = [], [], []
    for k in np.unique(lens):
        if k < 2:
            continue
        rk = recs[lens == k]
        mat = words[offsets[rk][:, None] + np.arange(k)]
        iu, ju = np.triu_indices(k, 1)
        out_r.append(np.repeat(rk, len(iu)))
        out_a.append(mat[:, iu].ravel())
        out_b.append(mat[:, ju].ravel())
    if not out_r:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return np.concatenate(out_r), np.concatenate(out_a), np.concatenate(out_b)


def _cell_itemsets(offsets: np.ndarray, words: np.ndarray, recs: np.ndarray,
                   sigma: int) -> dict[frozenset, int]:
    """Every wordset found in at least ``sigma`` of ``recs``, with its count.

    Depth-first over record bitsets (Python ints), extending a wordset
    only by words that form a frequent pair with its last word.
    """
    lens = np.diff(offsets)[recs]
    rows = np.repeat(np.arange(len(recs)), lens)
    inst = np.repeat(offsets[recs] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    ws = words[inst]
    uniq, counts = np.unique(ws, return_counts=True)
    found = {frozenset((w,)): c for w, c in zip(uniq.tolist(), counts.tolist()) if c >= sigma}

    _, pa, pb = _pairs(offsets, words, recs)
    keys, pair_counts = np.unique(pa << 32 | pb, return_counts=True)
    keys = keys[pair_counts >= sigma]
    partners: dict[int, list[int]] = {}
    for a, b in zip((keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist()):
        partners.setdefault(a, []).append(b)
    order = np.argsort(ws, kind="stable")
    starts = np.searchsorted(ws[order], uniq)
    bits: dict[int, int] = {}
    for w in set(partners).union(*partners.values()):
        i = int(np.searchsorted(uniq, w))
        mask = np.zeros(len(recs), dtype=bool)
        mask[rows[order[starts[i]:starts[i] + counts[i]]]] = True
        bits[w] = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    larger = {a: set(bs) for a, bs in partners.items()}

    def grow(prefix: frozenset, ext: list[tuple[int, int, int]]) -> None:
        for i, (w, b, c) in enumerate(ext):
            key = prefix | {w}
            found[key] = c
            nxt = []
            for w2, b2, _ in ext[i + 1:]:
                if w2 in larger.get(w, ()):
                    both = b & b2
                    n = both.bit_count()
                    if n >= sigma:
                        nxt.append((w2, both, n))
            if nxt:
                grow(key, nxt)

    for a, bs in partners.items():
        pairs = [(b, bits[a] & bits[b]) for b in bs]
        grow(frozenset((a,)), [(b, both, both.bit_count()) for b, both in pairs])
    return found


def _diff(want: dict, got: dict) -> str:
    missing = len(want.keys() - got.keys())
    extra = len(got.keys() - want.keys())
    wrong = sum(want[k] != got[k] for k in want.keys() & got.keys())
    return f"{missing} missing, {extra} extra, {wrong} with wrong counts"


def _expected(keys: np.ndarray, sigma: int) -> dict[int, int]:
    uniq, counts = np.unique(keys, return_counts=True)
    keep = counts >= sigma
    return dict(zip(uniq[keep].tolist(), counts[keep].tolist()))


def parse_summary(stdout: str) -> dict[str, float | str]:
    """``name: value`` lines of the mine summary; numbers become floats."""
    out: dict[str, float | str] = {}
    for m in re.finditer(r"^([a-z][a-z0-9 -]*): (\S+)$", stdout, re.M):
        try:
            out[m.group(1)] = float(m.group(2))
        except ValueError:
            out[m.group(1)] = m.group(2)
    return out


def check(corpus: Corpus, wl: Workload, output: str, stdout: str | None = None,
          ) -> list[str]:
    """Problems found in ``output`` (a pattern file); empty means correct."""
    errors: list[str] = []

    def fail(msg: str) -> None:
        if len(errors) < MAX_ERRORS:
            errors.append(msg)

    wid_of = {name: i for i, name in enumerate(corpus.names)}
    # (level, code) -> {wordset: count}
    cells: dict[tuple[int, int], dict[frozenset, int]] = {}
    with open(output, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
                names, gid, level, count = obj["words"], obj["gid"], obj["level"], obj["count"]
                wids = frozenset(wid_of[w] for w in names)
            except (ValueError, KeyError, TypeError) as exc:
                fail(f"line {lineno}: unreadable pattern ({exc!r})")
                continue
            if (len(wids) != len(names) or not wids or len(gid) != 2 * level
                    or not 0 <= level <= wl.height or set(gid) - {"0", "1"}):
                fail(f"line {lineno}: malformed pattern {line.strip()}")
                continue
            key = (level, int(gid, 2) if gid else 0)
            bucket = cells.setdefault(key, {})
            if wids in bucket:
                fail(f"line {lineno}: duplicate pattern {line.strip()}")
            bucket[wids] = count
            if count < wl.sigmas[level]:
                fail(f"line {lineno}: count {count} below sigma {wl.sigmas[level]}")

    inside, leaf = leaf_codes(corpus.lon, corpus.lat, wl)
    recs = np.flatnonzero(inside)
    lens = np.diff(corpus.offsets)
    inst_rec = np.repeat(np.arange(len(lens)), lens)
    inst_in = inside[inst_rec]
    w1, leaf1 = corpus.words[inst_in], leaf[inst_rec[inst_in]]
    pr, pa, pb = _pairs(corpus.offsets, corpus.words, recs)
    leaf2 = leaf[pr]
    vocab = len(corpus.names)
    h = wl.height
    pair_cells: list[tuple[int, int]] = []  # cells with a frequent word pair

    for level in range(h + 1):
        shift = 2 * (h - level)
        span = 1 << 2 * level
        sigma = wl.sigmas[level]
        want1 = _expected(w1 * span + (leaf1 >> shift), sigma)
        want2 = _expected((pa * vocab + pb) * span + (leaf2 >> shift), sigma)
        pair_cells += [(level, code) for code in sorted({k % span for k in want2})]
        got1: dict[int, int] = {}
        got2: dict[int, int] = {}
        for (lv, code), bucket in cells.items():
            if lv != level:
                continue
            for ws, count in bucket.items():
                if len(ws) == 1:
                    (w,) = ws
                    got1[w * span + code] = count
                elif len(ws) == 2:
                    a, b = sorted(ws)
                    got2[(a * vocab + b) * span + code] = count
        for size, want, got in ((1, want1, got1), (2, want2, got2)):
            if want != got:
                fail(f"level {level}: {size}-word patterns differ: {_diff(want, got)}")

    in_box_leaf = leaf[recs]
    for level, code in pair_cells:
        cell_recs = recs[in_box_leaf >> 2 * (h - level) == code]
        want = _cell_itemsets(corpus.offsets, corpus.words, cell_recs, wl.sigmas[level])
        got = cells.get((level, code), {})
        if want != got:
            sizes = sorted({len(k) for k in want.keys() ^ got.keys()}
                           | {len(k) for k in want.keys() & got.keys() if want[k] != got[k]})
            fail(f"cell {level}/{code}: patterns of sizes {sizes} differ: {_diff(want, got)}")

    for (level, code), bucket in cells.items():
        for ws, count in bucket.items():
            if len(ws) > 1:
                for sub in combinations(ws, len(ws) - 1):
                    have = bucket.get(frozenset(sub))
                    if have is None or have < count:
                        fail(f"closure: {sorted(sub)} in cell {level}/{code} is "
                             f"{have} under superset count {count}")

    if stdout is not None:
        got = parse_summary(stdout)
        n_out = int(len(lens) - len(recs))
        seen = np.unique(w1)
        retained = seen[np.bincount(w1, minlength=vocab)[seen] >= min(wl.sigmas)]
        keep = np.isin(w1, retained)
        entries = len(np.unique(w1[keep] << 2 * h | leaf1[keep]))
        want = {
            "records read": len(lens) + corpus.malformed,
            "skipped out-of-box": n_out,
            "malformed lines": corpus.malformed,
            "records mined": len(recs),
            "distinct words": len(seen),
            "retained words": len(retained),
            "word-cell entries": entries,
            "patterns total": sum(len(b) for b in cells.values()),
        }
        for level in range(h + 1):
            want[f"patterns level {level}"] = sum(
                len(b) for (lv, _), b in cells.items() if lv == level)
        for name, value in want.items():
            if got.get(name) != value:
                fail(f"summary {name!r}: printed {got.get(name)}, expected {value}")
    return errors
