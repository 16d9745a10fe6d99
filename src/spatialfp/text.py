"""Tokenization, stopword filtering and word interning."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import DictionaryFull
from .grid import GeoPoint

# Alphanumeric runs, Unicode-aware; underscore and everything else splits.
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

_MAX_WID = 2**32 - 1


class GeoRecord(NamedTuple):
    """One geo-tagged record: an opaque id, an interned wordset, a position."""

    oid: str
    words: frozenset[int]
    point: GeoPoint


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character, dropping empties."""
    return _TOKEN.findall(text.lower())


def refine(tokens: Iterable[str], stopwords: frozenset[str] | set[str]) -> set[str]:
    """Drop stopwords, collapse duplicates to a set."""
    words = set(tokens)
    if stopwords:
        words -= stopwords
    return words


class Vocabulary:
    """Bidirectional word <-> word-id map with dense first-seen ids.

    Fresh ids within a single intern_set call are assigned in sorted
    string order, so an identical record stream always yields an
    identical dictionary.
    """

    def __init__(self):
        self._words: list[str] = []
        self._wids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._words)

    def intern(self, word: str) -> int:
        wid = self._wids.get(word)
        if wid is None:
            wid = len(self._words)
            if wid > _MAX_WID:
                raise DictionaryFull("word-id space exhausted")
            self._wids[word] = wid
            self._words.append(word)
        return wid

    def intern_set(self, words: set[str]) -> frozenset[int]:
        wids = self._wids
        try:
            return frozenset([wids[w] for w in words])
        except KeyError:  # a new word: fresh ids go in sorted order
            return frozenset([self.intern(w) for w in sorted(words)])

    def word(self, wid: int) -> str:
        return self._words[wid]

    def save(self, path: str) -> None:
        r"""Persist as UTF-8 lines of "wid<TAB>word", with backslash, tab,
        LF and CR in a word written as ``\\``, ``\t``, ``\n`` and ``\r``."""
        with open(path, "w", encoding="utf-8") as fh:
            for wid, word in enumerate(self._words):
                fh.write(f"{wid}\t{word.translate(_ESCAPE)}\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        vocab = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                wid_s, word = line.split("\t", 1)
                word = _ESCAPED.sub(_unescape, word)
                wid = int(wid_s)
                if wid != len(vocab._words):
                    raise ValueError(f"non-dense word id {wid} in {path}")
                vocab._wids[word] = wid
                vocab._words.append(word)
        return vocab


_ESCAPE = str.maketrans({"\\": r"\\", "\t": r"\t", "\n": r"\n", "\r": r"\r"})
_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def _unescape(m: re.Match) -> str:
    return _UNESCAPE.get(m[1], m[0])


def load_stopwords(path: str) -> frozenset[str]:
    """One word per line, UTF-8; blank lines and '#' comment lines ignored."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if not word or word.startswith("#"):
                continue
            out.add(word.lower())
    return frozenset(out)
