"""Seeded input corpora for the benchmark, with their ground truth.

The generators live here rather than in ``spatialfp.datagen`` so that a
change to the program's own generator cannot shift the workloads. The
program only ever sees the written file; the checker works from the
``Corpus`` returned next to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BBox = tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat


@dataclass
class Corpus:
    """Ground truth of one written record file.

    Parsed records (in-box or not) are held in file order as a CSR word
    list plus positions; malformed lines are only counted. Word ids index
    ``names``, the exact strings the miner prints.
    """

    names: list[str]
    offsets: np.ndarray  # int64, len(records) + 1
    words: np.ndarray    # int64, sorted ascending within each record
    lon: np.ndarray
    lat: np.ndarray
    malformed: int


@dataclass(frozen=True)
class Workload:
    bbox: BBox
    height: int
    sigmas: tuple[int, ...]  # root first, one per level
    why: str

    def mine_args(self) -> list[str]:
        return ["--bbox=" + ",".join(repr(v) for v in self.bbox),
                "--height", str(self.height),
                "--sigma", ",".join(str(s) for s in self.sigmas)]


WORLD = (-10.0, -5.0, 10.0, 5.0)
CITY = (-74.3, 40.5, -73.7, 40.9)

# Why each workload: c4_words is the ROADMAP reference corpus, where
# per-record ingest dominates; dense_growth spends its time in
# conditional-tree growth and output writing, so ingest work barely
# moves it; text_deep runs the tokenizer, the malformed and out-of-box
# paths and ten levels of growth over the same tree.
WORKLOADS = {
    "c4_words": Workload(WORLD, 5, (10,) * 6,
                         "reference corpus; ingest (parse, encode, both passes) dominates"),
    "dense_growth": Workload(WORLD, 3, (25,) * 4,
                             "long records, small vocabulary; growth and output writing dominate"),
    "text_deep": Workload(CITY, 9, (120, 90, 70, 50, 35, 25, 18, 12, 8, 5),
                          "free text with errors, hot spots and ten levels of growth"),
}


def _zipf_cdf(size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    cdf = np.cumsum(np.power(ranks, -exponent))
    return cdf / cdf[-1]


def _dedup_sorted(offsets: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate words per record and sort each record's words."""
    rec = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    keys = np.unique(rec.astype(np.int64) << 32 | draws.astype(np.int64))
    rec_u = keys >> 32
    words = keys & 0xFFFFFFFF
    counts = np.bincount(rec_u, minlength=len(offsets) - 1)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64), words


def zipf_corpus(seed: int, n: int, vocab: int, zipf: float, words_mean: float,
                bbox: BBox) -> Corpus:
    """Uniform positions and Zipf words, drawn as ``spatialfp gen`` draws them.

    With no planted patterns the written file equals the output of
    ``spatialfp gen`` for the same parameters, byte for byte.
    """
    rng = np.random.default_rng(seed)
    lon = rng.uniform(bbox[0], bbox[2], n)
    lat = rng.uniform(bbox[1], bbox[3], n)
    cdf = _zipf_cdf(vocab, zipf)
    ks = rng.poisson(words_mean, n)
    draws = np.searchsorted(cdf, rng.random(int(ks.sum())))
    offsets, words = _dedup_sorted(np.concatenate(([0], np.cumsum(ks))), draws)
    names = [f"w{w:05d}" for w in range(vocab)]
    return Corpus(names, offsets, words, lon, lat, 0)


def write_zipf(corpus: Corpus, path: str) -> None:
    names, off, words = corpus.names, corpus.offsets.tolist(), corpus.words.tolist()
    lon, lat = corpus.lon.tolist(), corpus.lat.tolist()
    lines = []
    for i in range(len(lon)):
        ws = '", "'.join(names[w] for w in words[off[i]:off[i + 1]])
        ws = f'["{ws}"]' if ws else "[]"
        lines.append(f'{{"id": "r{i:06d}", "words": {ws}, "lon": {lon[i]!r}, "lat": {lat[i]!r}}}\n')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


_CONSONANTS = "bdfgklmnprstvzhjcwxy"
_VOWELS = "aeiou"


def _word_name(wid: int) -> str:
    # Three consonant-vowel syllables; every seventh word spells its e as
    # an accented e, so the tokenizer sees non-ASCII letters too.
    syl = []
    for _ in range(3):
        wid, d = divmod(wid, 100)
        syl.append(_CONSONANTS[d // 5] + _VOWELS[d % 5])
    name = "".join(syl)
    return name.replace("e", "é") if sum(map(ord, name)) % 7 == 0 else name


_MALFORMED = (
    '{{"id": "m{i}", "text": "unterminated',
    '[{i}, 2, 3]',
    '{{"id": "m{i}", "text": "no latitude", "lon": -74.0}}',
    '{{"id": "m{i}", "text": "not finite", "lon": NaN, "lat": 40.7}}',
    '{{"id": "m{i}", "text": "off the globe", "lon": -74.0, "lat": 95.5}}',
    '{{"id": "m{i}", "text": 17, "lon": -74.0, "lat": 40.7}}',
    '{{"id": "m{i}", "words": "flat string", "lon": -74.0, "lat": 40.7}}',
    '{{"id": "m{i}", "words": ["ok", 3], "lon": -74.0, "lat": 40.7}}',
    '{{"id": "m{i}", "text": "boolean lon", "lon": true, "lat": 40.7}}',
)
_PUNCT = ",.!?:;"
SPOTS = 40
LOCAL_WORDS = 12
BACKGROUND = 3000


def text_corpus(seed: int, n: int) -> tuple[Corpus, list[str]]:
    """Free-text records around seeded Gaussian hot spots.

    Each hot spot has its own small local vocabulary on top of a global
    Zipf background. About 1% of lines are malformed and about 2% of
    records lie outside the box; in-box positions are clipped to the box,
    so some sit exactly on its maximum edges. Returns the ground truth and
    the file's lines.
    """
    rng = np.random.default_rng(seed)
    bbox = CITY
    w_lon, w_lat = bbox[2] - bbox[0], bbox[3] - bbox[1]
    # Spots sit on a jittered 8 x 5 lattice with a fixed set of widths, so
    # seeds move them around without changing how much they overlap.
    gx, gy = np.meshgrid(np.arange(8), np.arange(5))
    cx = bbox[0] + (gx.ravel() + rng.uniform(0.2, 0.8, SPOTS)) * w_lon / 8
    cy = bbox[1] + (gy.ravel() + rng.uniform(0.2, 0.8, SPOTS)) * w_lat / 5
    sd = rng.permutation(np.linspace(0.004, 0.03, SPOTS)) * w_lon
    spot = np.searchsorted(_zipf_cdf(SPOTS, 0.7), rng.random(n))
    lon = np.clip(cx[spot] + rng.normal(0.0, 1.0, n) * sd[spot], bbox[0], bbox[2])
    lat = np.clip(cy[spot] + rng.normal(0.0, 0.7, n) * sd[spot], bbox[1], bbox[3])
    outside = rng.random(n) < 0.02
    n_out = int(outside.sum())
    lon[outside] = rng.uniform(bbox[0] - 5.0, bbox[0] - 0.001, n_out)

    k_bg = rng.poisson(4.0, n)
    k_loc = rng.poisson(1.8, n)
    bg = np.searchsorted(_zipf_cdf(BACKGROUND, 1.05), rng.random(int(k_bg.sum())))
    loc = np.searchsorted(_zipf_cdf(LOCAL_WORDS, 0.8), rng.random(int(k_loc.sum())))
    loc = BACKGROUND + np.repeat(spot, k_loc) * LOCAL_WORDS + loc
    rec = np.concatenate((np.repeat(np.arange(n), k_bg), np.repeat(np.arange(n), k_loc)))
    order = np.argsort(rec, kind="stable")
    draws = np.concatenate((bg, loc))[order]
    offsets, words = _dedup_sorted(
        np.concatenate(([0], np.cumsum(k_bg + k_loc))), draws)
    names = [_word_name(w) for w in range(BACKGROUND + SPOTS * LOCAL_WORDS)]

    style = rng.integers(0, 1 << 30, size=int(np.diff(offsets).sum() + n))
    malformed_at = set(np.flatnonzero(rng.random(n) < 0.01).tolist())
    off, wl = offsets.tolist(), words.tolist()
    lon_l, lat_l = lon.tolist(), lat.tolist()
    lines: list[str] = []
    s = 0
    for i in range(n):
        if i in malformed_at:
            lines.append(_MALFORMED[i % len(_MALFORMED)].format(i=i) + "\n")
        if i % 997 == 0:
            lines.append("   \n")  # blank lines are skipped, not counted
        toks = []
        for w in wl[off[i]:off[i + 1]]:
            r = style[s]
            s += 1
            t = names[w]
            t = (t, t.upper(), t.title(), t)[r & 3]
            t = ("", "", "", "#", "@", "", "", "")[(r >> 2) & 7] + t
            t = t + ("", "", "", _PUNCT[(r >> 5) % 6], "", "")[(r >> 8) % 6]
            toks.append(t)
            if (r >> 11) % 16 == 0:
                toks.append(t.lower())  # repeated word, collapsed by the miner
        r = style[s]
        s += 1
        perm = (r >> 3) % max(len(toks), 1)
        toks = toks[perm:] + toks[:perm]
        text = (" ", "  ", " - ", "/", " ... ")[r % 5].join(toks)
        obj: dict = {"id": f"t{i:06d}"} if r & (1 << 10) else {}
        if (r >> 12) % 64 == 0:
            # words wins over text when both are present
            obj["text"] = "ignored #noise words"
            obj["words"] = [names[w] for w in wl[off[i]:off[i + 1]]]
        else:
            obj["text"] = text
        obj["lon"] = lon_l[i]
        obj["lat"] = lat_l[i]
        lines.append(json.dumps(obj, ensure_ascii=bool(r & (1 << 20))) + "\n")
    corpus = Corpus(names, offsets, words, lon, lat, len(malformed_at))
    return corpus, lines


def make(name: str, seed: int, path: str, scale: float = 1.0) -> Corpus:
    """Write workload ``name`` for ``seed`` to ``path``; ``scale`` < 1 shrinks it."""
    if name == "c4_words":
        corpus = zipf_corpus(seed, int(100_000 * scale), 50_000, 0.9, 5.0, WORLD)
        write_zipf(corpus, path)
    elif name == "dense_growth":
        corpus = zipf_corpus(seed, int(10_000 * scale), 500, 1.1, 20.0, WORLD)
        write_zipf(corpus, path)
    elif name == "text_deep":
        corpus, lines = text_corpus(seed, int(40_000 * scale))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
    else:
        raise KeyError(name)
    return corpus
