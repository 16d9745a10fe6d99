"""Pinned output bytes of ``spatialfp mine`` on three seeded corpora.

The corpora are written by this file from ``random.Random(seed).random()``
alone, whose stream Python keeps stable across versions, with integer
and float arithmetic only. Each case pins three sha256 sums and the
per-level pattern counts:

- the corpus file, so that a change in the generator is told apart from
  a change in the miner;
- the pattern file the CLI writes;
- the patterns per level from the run summary.

``c4`` has the shape of the benchmark's reference corpus (uniform
positions, Zipf-like words, height 5). ``text`` is free text around hot
spots at height 9 with per-level sigmas: case folding, Unicode letters,
JSON escapes, ``NaN`` and other malformed lines, blank lines and
out-of-box points. ``dense`` has the shape of the benchmark's
``dense_growth``: long records over a small vocabulary at height 3, so
that cells hold patterns of 6 and 7 words. The pins were verified once
with a complete check (every pattern of every cell that holds a
frequent pair, enumerated independently of the miner) before they were
committed.
"""

import contextlib
import hashlib
import io
import json
import random
from bisect import bisect_left

import pytest

from spatialfp import cli

C4_BBOX = (-10.0, -5.0, 10.0, 5.0)
DENSE_BBOX = C4_BBOX
TEXT_BBOX = (-74.3, 40.5, -73.7, 40.9)


def _harmonic_cdf(size: int) -> list[float]:
    """Cumulative weights 1/k for k = 1..size, normalized (Zipf, exponent 1)."""
    cdf, total = [], 0.0
    for k in range(1, size + 1):
        total += 1.0 / k
        cdf.append(total)
    return [c / total for c in cdf]


def c4_lines(seed: int, n: int = 20_000, vocab: int = 10_000) -> list[str]:
    """Uniform positions; 1-9 Zipf words a record, duplicates collapsed."""
    rnd = random.Random(seed).random
    cdf = _harmonic_cdf(vocab)
    lines = []
    for i in range(n):
        lon = C4_BBOX[0] + rnd() * (C4_BBOX[2] - C4_BBOX[0])
        lat = C4_BBOX[1] + rnd() * (C4_BBOX[3] - C4_BBOX[1])
        k = 1 + int(rnd() * 9)
        wids = sorted({min(bisect_left(cdf, rnd()), vocab - 1) for _ in range(k)})
        words = ", ".join(f'"w{w:05d}"' for w in wids)
        lines.append(f'{{"id": "r{i:05d}", "words": [{words}], '
                     f'"lon": {lon!r}, "lat": {lat!r}}}\n')
    return lines


def dense_lines(seed: int, n: int = 2_000, vocab: int = 150) -> list[str]:
    """Uniform positions; 10-25 Zipf words a record, duplicates collapsed."""
    rnd = random.Random(seed).random
    cdf = _harmonic_cdf(vocab)
    lines = []
    for i in range(n):
        lon = DENSE_BBOX[0] + rnd() * (DENSE_BBOX[2] - DENSE_BBOX[0])
        lat = DENSE_BBOX[1] + rnd() * (DENSE_BBOX[3] - DENSE_BBOX[1])
        k = 10 + int(rnd() * 16)
        wids = sorted({min(bisect_left(cdf, rnd()), vocab - 1) for _ in range(k)})
        words = ", ".join(f'"d{w:03d}"' for w in wids)
        lines.append(f'{{"id": "d{i:04d}", "words": [{words}], '
                     f'"lon": {lon!r}, "lat": {lat!r}}}\n')
    return lines


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiouéüøå"
_MALFORMED = (
    '{{"id": "m{i}", "text": "unterminated',
    '[{i}, 2, 3]',
    '{{"id": "m{i}", "text": "no latitude", "lon": -74.0}}',
    '{{"id": "m{i}", "text": "not finite", "lon": NaN, "lat": 40.7}}',
    '{{"id": "m{i}", "text": "off the globe", "lon": -74.0, "lat": 95.5}}',
    '{{"id": "m{i}", "words": ["ok", 3], "lon": -74.0, "lat": 40.7}}',
)
TEXT_SPOTS = 12
TEXT_LOCAL = 8
TEXT_BACKGROUND = 400


def text_name(wid: int) -> str:
    """Three consonant-vowel syllables; some vowels are non-ASCII."""
    syl = []
    for _ in range(3):
        wid, d = divmod(wid, len(_CONSONANTS) * len(_VOWELS))
        syl.append(_CONSONANTS[d // len(_VOWELS)] + _VOWELS[d % len(_VOWELS)])
    return "".join(syl)


def text_lines(seed: int, n: int = 4_000) -> list[str]:
    """Free text around hot spots, each with its own local words.

    A spot's points spread by an Irwin-Hall sum of four uniforms. About
    1% of lines are malformed and about 2% of records lie west of the box.
    """
    rnd = random.Random(seed).random
    w_lon, w_lat = TEXT_BBOX[2] - TEXT_BBOX[0], TEXT_BBOX[3] - TEXT_BBOX[1]
    spots = [(TEXT_BBOX[0] + (0.1 + 0.8 * rnd()) * w_lon,
              TEXT_BBOX[1] + (0.1 + 0.8 * rnd()) * w_lat,
              (0.002 + 0.03 * rnd()) * w_lon) for _ in range(TEXT_SPOTS)]
    spot_cdf = _harmonic_cdf(TEXT_SPOTS)
    bg_cdf = _harmonic_cdf(TEXT_BACKGROUND)
    lines = []
    for i in range(n):
        if rnd() < 0.01:
            lines.append(_MALFORMED[i % len(_MALFORMED)].format(i=i) + "\n")
        if i % 500 == 0:
            lines.append("  \n")
        s = bisect_left(spot_cdf, rnd())
        cx, cy, sd = spots[s]
        lon = cx + (rnd() + rnd() + rnd() + rnd() - 2.0) * sd
        lat = cy + (rnd() + rnd() + rnd() + rnd() - 2.0) * sd * 0.7
        lon = min(max(lon, TEXT_BBOX[0]), TEXT_BBOX[2])
        lat = min(max(lat, TEXT_BBOX[1]), TEXT_BBOX[3])
        if rnd() < 0.02:
            lon = TEXT_BBOX[0] - 0.001 - 3.0 * rnd()
        wids = [bisect_left(bg_cdf, rnd()) for _ in range(int(rnd() * 6))]
        wids += [TEXT_BACKGROUND + s * TEXT_LOCAL + int(rnd() * rnd() * TEXT_LOCAL)
                 for _ in range(1 + int(rnd() * 3))]
        toks = []
        for w in wids:
            t = text_name(w)
            style = int(rnd() * 64)
            t = (t, t.upper(), t.title(), t)[style & 3]
            t = ("", "#", "", "@")[(style >> 2) & 3] + t
            t += ("", ",", "", ".", "!", "")[style >> 4 & 3]
            toks.append(t)
        text = (" ", "  ", " - ", "/")[int(rnd() * 4)].join(toks)
        obj = {"id": f"t{i:05d}"} if rnd() < 0.5 else {}
        if rnd() < 0.03:
            # words wins over text when both are present
            obj["text"] = "ignored noise"
            obj["words"] = sorted({text_name(w) for w in wids})
        else:
            obj["text"] = text
        obj["lon"] = lon
        obj["lat"] = lat
        lines.append(json.dumps(obj, ensure_ascii=rnd() < 0.5) + "\n")
    return lines


CASES = {
    "c4": (lambda: c4_lines(17), C4_BBOX, 5, "6"),
    "dense": (lambda: dense_lines(43), DENSE_BBOX, 3, "20"),
    "text": (lambda: text_lines(29), TEXT_BBOX, 9, "60,48,40,32,26,20,15,11,8,5"),
}

# name -> (corpus sha256, output sha256, patterns per level, root first)
PINS = {
    "c4": ("0c6d24a5deaea594673c084673a24696839878b943b70eeb29e4fee98e718274",
           "bd378178efd97add08996fbe0033cd56c81acec600800d648bc53e0d071403cb",
           [7425, 5779, 4384, 3279, 2331, 1261]),
    "dense": ("67ad6903d41947433f82a61ebbec3cc8b88876d2cc24f36a26a0f337ff148e7e",
              "17b21d1beff36a7f197e0d6c44f6194d5c9d145fe60fd9ab3afd4cf881aef42f",
              [15592, 5865, 1731, 296]),
    "text": ("3b66249f9f69fcc4e45e0a54a5ee5eb2f7e3de650bc8fae71273e40b4bb2f43d",
             "cc7d6109a640a8ba6334f105f3367fca3b9a08749c7b1043a5d974ae7bf1f9bf",
             [83, 105, 123, 150, 176, 215, 224, 178, 96, 71]),
}


def mine_case(name: str, backend: str, tmp_path) -> tuple[str, str, list[int]]:
    make, bbox, height, sigma = CASES[name]
    corpus = tmp_path / f"{name}.jsonl"
    corpus.write_bytes("".join(make()).encode("utf-8"))
    out = tmp_path / f"{name}.{backend}.out.jsonl"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["mine", "--input", str(corpus), "--output", str(out),
                         "--bbox=" + ",".join(map(repr, bbox)),
                         "--height", str(height), "--sigma", sigma,
                         "--backend", backend])
    assert code == 0
    summary = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
    levels = [int(summary[f"patterns level {k}"]) for k in range(height + 1)]
    return (hashlib.sha256(corpus.read_bytes()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest(), levels)


@pytest.mark.parametrize("backend", ["pure"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(name, backend, tmp_path):
    corpus_sha, out_sha, levels = mine_case(name, backend, tmp_path)
    want_corpus, want_out, want_levels = PINS[name]
    assert corpus_sha == want_corpus, "the corpus generator changed"
    assert levels == want_levels
    assert out_sha == want_out
