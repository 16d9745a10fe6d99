import pytest

from helpers import vocab_get, vocab_has, vocab_wid
from spatialfp.text import Vocabulary, load_stopwords, refine, tokenize


@pytest.mark.parametrize("text,tokens", [
    ("we are in an Italian restaurant",
     ["we", "are", "in", "an", "italian", "restaurant"]),
    ("pizza!!pizza", ["pizza", "pizza"]),
    ("snake_case splits", ["snake", "case", "splits"]),
    ("open 24h, 7/7", ["open", "24h", "7", "7"]),
    ("Café & bar", ["café", "bar"]),
    ("", []),
    ("!!!", []),
])
def test_tokenize(text, tokens):
    assert tokenize(text) == tokens


def test_refine_drops_stopwords_and_duplicates():
    tokens = ["the", "pizza", "pizza", "was", "great"]
    assert refine(tokens, {"the", "was"}) == {"pizza", "great"}


def test_refine_empty():
    assert refine([], frozenset()) == set()


def test_intern_is_idempotent():
    vocab = Vocabulary()
    assert vocab.intern("pizza") == 0
    assert vocab.intern("bar") == 1
    assert vocab.intern("pizza") == 0
    assert len(vocab) == 2
    assert vocab_has(vocab, "pizza") and not vocab_has(vocab, "tapas")


def test_intern_set_assigns_fresh_ids_in_sorted_order():
    vocab = Vocabulary()
    wids = vocab.intern_set({"restaurant", "italian"})
    assert wids == frozenset({0, 1})
    assert vocab.word(0) == "italian"
    assert vocab.word(1) == "restaurant"


def test_wid_word_roundtrip():
    vocab = Vocabulary()
    for w in ["a", "b", "c"]:
        vocab.intern(w)
    for wid in range(3):
        assert vocab_wid(vocab, vocab.word(wid)) == wid
    assert vocab_get(vocab, "missing") is None
    with pytest.raises(KeyError):
        vocab_wid(vocab, "missing")


def test_vocabulary_save_load_roundtrip(tmp_path):
    vocab = Vocabulary()
    for w in ["pizza", "bar", "café"]:
        vocab.intern(w)
    path = tmp_path / "dict.tsv"
    vocab.save(str(path))
    loaded = Vocabulary.load(str(path))
    assert len(loaded) == 3
    assert [loaded.word(i) for i in range(3)] == ["pizza", "bar", "café"]


def test_vocabulary_load_rejects_gaps(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("0\ta\n2\tb\n", encoding="utf-8")
    with pytest.raises(ValueError):
        Vocabulary.load(str(path))


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# common words\nThe\n\n  and  \na\n", encoding="utf-8")
    assert load_stopwords(str(path)) == frozenset({"the", "and", "a"})
