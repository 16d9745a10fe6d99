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
from itertools import islice
from typing import Callable, Iterable, Iterator

from .grid import GeoPoint, Gid, gid_str
from .spatial_mining import Patterns
from .text import GeoRecord, Vocabulary, refine, tokenize


class MalformedRecord(ValueError):
    """A line that cannot be turned into a record."""


def parse_record_line(line: str, seq: int, vocab: Vocabulary,
                      stopwords: frozenset[str]) -> GeoRecord:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record line is not an object")

    lon = obj.get("lon")
    lat = obj.get("lat")
    # NaN fails every comparison, so finite in-range floats pass straight.
    if not (type(lon) is float and type(lat) is float
            and -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        lon, lat = _checked_point(lon, lat)

    words = obj.get("words")
    if type(words) is list:
        try:
            tokens = [w.lower() for w in words]
        except AttributeError:  # of all JSON values only strings have lower()
            raise MalformedRecord("words must be an array of strings") from None
    elif words is not None:
        raise MalformedRecord("words must be an array of strings")
    else:
        text = obj.get("text")
        if not isinstance(text, str):
            raise MalformedRecord("record needs a text or words field")
        tokens = tokenize(text)
    # A lone surrogate cannot be written out as UTF-8; read from a UTF-8
    # file, only a line with a ``\u`` escape, so a backslash, holds one.
    if "\\" in line:
        try:
            "".join(tokens).encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecord("words hold a lone surrogate") from None

    oid = obj.get("id")
    if type(oid) is not str:
        oid = str(seq) if oid is None else str(oid)

    return GeoRecord(oid, vocab.intern_set(refine(tokens, stopwords)), GeoPoint(lon, lat))


def _checked_point(lon, lat) -> tuple[float, float]:
    """Coordinates of any JSON type, as floats, or MalformedRecord."""
    # A chained comparison, as math.isfinite overflows on an int beyond
    # float range; such an int is finite and fails the range check.
    if not isinstance(lon, (int, float)) or isinstance(lon, bool) or not -math.inf < lon < math.inf:
        raise MalformedRecord("missing or non-finite lon")
    if not isinstance(lat, (int, float)) or isinstance(lat, bool) or not -math.inf < lat < math.inf:
        raise MalformedRecord("missing or non-finite lat")
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise MalformedRecord(f"coordinates ({lon}, {lat}) outside valid range")
    return float(lon), float(lat)


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
                 limit: int | None = None):
        self.path = path
        self.vocab = vocab
        self.stopwords = stopwords
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
                                            self.stopwords)
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
    """One JSON object per pattern, as ``json.dumps(..., ensure_ascii=False)``
    writes it, the words in canonical order (descending global frequency,
    then id) straight from the pattern's ranks, each word rendered once."""
    import numpy as np

    frags = np.array([json.dumps(vocab.word(w), ensure_ascii=False)
                      for w in patterns.words.order], object)
    rows = [patterns.rows(size, frags, ", ".join) for size in range(1, len(patterns.sizes) + 1)]
    cell, lines = None, []
    with open(path, "w", encoding="utf-8") as fh:
        for level, code, size, n in patterns.blocks:
            if cell != (level, code):
                cell = (level, code)
                head = f'"gid": "{gid_str(Gid(level, code))}", "level": {level}'
            # One write per 4096 lines or more: few calls, and no more
            # than a slice of a block's text held at once.
            for take in range(n, 0, -4096):
                lines += [f'{{"words": [{words}], {head}, "count": {count}}}\n'
                          for words, count in islice(rows[size - 1], min(take, 4096))]
                if len(lines) >= 4096:
                    fh.write("".join(lines))
                    lines.clear()
        fh.write("".join(lines))
