"""Line-delimited file formats: input records and mined patterns.

Records are UTF-8 lines of flat JSON objects with fields ``id``
(optional), ``text`` or ``words`` (pre-tokenized array, which wins if
both are present), ``lon`` and ``lat``. Results are one JSON object per
pattern row: ``words`` (canonical order), ``gid`` (quadrant-bit string),
``level`` and ``count``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Iterator

from .grid import GeoPoint, Gid, gid_str
from .spatial_mining import Patterns
from .text import GeoRecord, Stemmer, Vocabulary, refine, tokenize


class MalformedRecord(ValueError):
    """A line that cannot be turned into a record."""


def parse_record_line(line: str, seq: int, vocab: Vocabulary,
                      stopwords: frozenset[str],
                      stemmer: Stemmer | None = None) -> GeoRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record line is not an object")

    lon = obj.get("lon")
    lat = obj.get("lat")
    if not isinstance(lon, (int, float)) or isinstance(lon, bool) or not math.isfinite(lon):
        raise MalformedRecord("missing or non-finite lon")
    if not isinstance(lat, (int, float)) or isinstance(lat, bool) or not math.isfinite(lat):
        raise MalformedRecord("missing or non-finite lat")
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise MalformedRecord(f"coordinates ({lon}, {lat}) outside valid range")

    words = obj.get("words")
    if words is not None:
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise MalformedRecord("words must be an array of strings")
        tokens = [w.lower() for w in words]
    else:
        text = obj.get("text")
        if not isinstance(text, str):
            raise MalformedRecord("record needs a text or words field")
        tokens = tokenize(text)

    oid = obj.get("id")
    if oid is None:
        oid = str(seq)
    elif not isinstance(oid, str):
        oid = str(oid)

    wordset = vocab.intern_set(refine(tokens, stopwords, stemmer))
    return GeoRecord(oid, wordset, GeoPoint(float(lon), float(lat)))


class FileSource:
    """Record source over a line-delimited file, parsed as it streams.

    Each iteration reads the file from the start, parsing every line
    once. Malformed lines, a line that is not valid UTF-8 among them, are
    skipped; ``lines_read`` and ``malformed`` describe the last
    iteration. Iterating again re-interns the same words, which keeps
    their ids.
    """

    def __init__(self, path: str, vocab: Vocabulary,
                 stopwords: frozenset[str] = frozenset(),
                 stemmer: Stemmer | None = None,
                 limit: int | None = None):
        self.path = path
        self.vocab = vocab
        self.stopwords = stopwords
        self.stemmer = stemmer
        self.limit = limit
        self.lines_read = 0
        self.malformed = 0

    def __iter__(self) -> Iterator[GeoRecord]:
        self.lines_read = 0
        self.malformed = 0
        yielded = 0
        with open(self.path, "rb") as fh:
            for raw in fh:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    line = None
                else:
                    if not line.strip():
                        continue
                if self.limit is not None and yielded >= self.limit:
                    break
                self.lines_read += 1
                if line is None:
                    self.malformed += 1
                    continue
                try:
                    rec = parse_record_line(line, self.lines_read, self.vocab,
                                            self.stopwords, self.stemmer)
                except MalformedRecord:
                    self.malformed += 1
                    continue
                yielded += 1
                yield rec


def write_corpus(path: str, records: Iterable[GeoRecord],
                 name_of: Callable[[int], str]) -> None:
    """Serialize records as input lines, words rendered through name_of."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "id": rec.oid,
                "words": [name_of(w) for w in sorted(rec.words)],
                "lon": rec.point.lon,
                "lat": rec.point.lat,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def write_patterns(path: str, patterns: Patterns, vocab: Vocabulary) -> None:
    """One JSON object per row, as ``json.dumps(..., ensure_ascii=False)``
    writes it, the words in canonical order (descending global frequency,
    then id) straight from the row's sorted ranks, each rendered once."""
    frags = [json.dumps(vocab.word(w), ensure_ascii=False) for w in patterns.words.order]
    cell = None
    with open(path, "w", encoding="utf-8") as fh:
        for neg_level, code, _, ranks, count in patterns.rows:
            if cell != (neg_level, code):
                cell = (neg_level, code)
                head = f'"gid": "{gid_str(Gid(-neg_level, code))}", "level": {-neg_level}'
            words = ", ".join([frags[r] for r in ranks])
            fh.write(f'{{"words": [{words}], {head}, "count": {count}}}\n')
