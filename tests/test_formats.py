import json

import pytest

from helpers import (
    REF_GRID,
    as_result,
    build_tree,
    mine_patterns,
    read_patterns,
    reference_records,
)
from spatialfp.formats import (
    FileSource,
    MalformedRecord,
    parse_record_line,
    write_corpus,
    write_patterns,
)
from spatialfp.grid import Gid, gid_str
from spatialfp.spatial_mining import SpatialPattern
from spatialfp.spatial_tree import WordTable
from spatialfp.text import Vocabulary

NO_STOP = frozenset()


def _parse(line, vocab=None, stopwords=NO_STOP, stemmer=None, seq=1):
    if vocab is None:
        vocab = Vocabulary()
    return parse_record_line(line, seq, vocab, stopwords, stemmer)


def test_parse_text_record():
    vocab = Vocabulary()
    rec = _parse('{"id": "t1", "text": "Pizza! pizza bar", "lon": 1.5, "lat": -2.0}',
                 vocab)
    assert rec.oid == "t1"
    assert rec.point == (1.5, -2.0)
    assert {vocab.word(w) for w in rec.words} == {"pizza", "bar"}


def test_words_array_wins_over_text():
    vocab = Vocabulary()
    rec = _parse('{"words": ["Bar", "pizza"], "text": "ignored", "lon": 0, "lat": 0}',
                 vocab)
    assert {vocab.word(w) for w in rec.words} == {"bar", "pizza"}


def test_missing_id_falls_back_to_sequence_number():
    rec = _parse('{"text": "x", "lon": 0, "lat": 0}', seq=17)
    assert rec.oid == "17"


def test_numeric_id_is_stringified():
    rec = _parse('{"id": 7, "text": "x", "lon": 0, "lat": 0}')
    assert rec.oid == "7"


def test_stopwords_and_stemmer_apply():
    vocab = Vocabulary()
    rec = _parse('{"text": "the pizzas", "lon": 0, "lat": 0}', vocab,
                 stopwords=frozenset({"the"}), stemmer=lambda t: t.rstrip("s"))
    assert {vocab.word(w) for w in rec.words} == {"pizza"}


@pytest.mark.parametrize("line", [
    "not json",
    '["an", "array"]',
    '{"text": "x", "lat": 0}',
    '{"text": "x", "lon": 0}',
    '{"text": "x", "lon": "east", "lat": 0}',
    '{"text": "x", "lon": true, "lat": 0}',
    '{"text": "x", "lon": NaN, "lat": 0}',
    '{"text": "x", "lon": 181.0, "lat": 0}',
    '{"text": "x", "lon": 0, "lat": -90.5}',
    '{"lon": 0, "lat": 0}',
    '{"text": 5, "lon": 0, "lat": 0}',
    '{"words": "pizza", "lon": 0, "lat": 0}',
    '{"words": ["ok", 3], "lon": 0, "lat": 0}',
])
def test_malformed_lines_are_rejected(line):
    with pytest.raises(MalformedRecord):
        _parse(line)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_file_source_replays_and_counts(tmp_path):
    path = tmp_path / "records.jsonl"
    _write_lines(path, [
        '{"id": "a", "text": "north pizza", "lon": 0.1, "lat": 0.2}',
        "",
        "garbage",
        '{"id": "b", "text": "south pizza", "lon": 0.3, "lat": 0.4}',
        '   ',
    ])
    source = FileSource(str(path), Vocabulary())
    first = list(source)
    assert [r.oid for r in first] == ["a", "b"]
    assert source.lines_read == 3
    assert source.malformed == 1
    second = list(source)
    assert second == first
    assert source.lines_read == 3 and source.malformed == 1


def test_file_source_limit(tmp_path):
    path = tmp_path / "records.jsonl"
    _write_lines(path, [
        f'{{"text": "word{i}", "lon": 0, "lat": 0}}' for i in range(5)])
    source = FileSource(str(path), Vocabulary(), limit=2)
    assert len(list(source)) == 2
    assert source.lines_read == 2


def test_corpus_roundtrip(tmp_path):
    vocab_out = Vocabulary()
    names = {}
    for rec in reference_records():
        for w in rec.words:
            names[w] = chr(ord("a") + w)
    path = tmp_path / "corpus.jsonl"
    write_corpus(str(path), reference_records(), names.__getitem__)

    vocab_in = Vocabulary()
    back = list(FileSource(str(path), vocab_in))
    assert [r.oid for r in back] == ["r1", "r2", "r3", "r4"]
    for orig, rec in zip(reference_records(), back):
        assert rec.point == orig.point
        assert {vocab_in.word(w) for w in rec.words} == {names[w] for w in orig.words}


def test_pattern_file_roundtrip(tmp_path):
    vocab = Vocabulary()
    for w in ["a", "b", "c"]:
        vocab.intern(w)
    tree = build_tree(reference_records(), 2, REF_GRID)
    patterns = mine_patterns(tree, [2, 2])
    path = tmp_path / "patterns.jsonl"
    write_patterns(str(path), patterns, vocab)

    rows = read_patterns(str(path))
    assert rows == [
        {"words": ["a"], "gid": "00", "level": 1, "count": 2},
        {"words": ["b"], "gid": "00", "level": 1, "count": 2},
        {"words": ["a", "b"], "gid": "00", "level": 1, "count": 2},
        {"words": ["a"], "gid": "", "level": 0, "count": 3},
        {"words": ["b"], "gid": "", "level": 0, "count": 3},
        {"words": ["a", "b"], "gid": "", "level": 0, "count": 2},
    ]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)  # one object per line, no trailing junk


def test_render_words_uses_global_order(tmp_path):
    vocab = Vocabulary()
    for w in ["rare", "common"]:
        vocab.intern(w)
    tree = build_tree(reference_records(), 2, REF_GRID)
    # wid 0 ranks before wid 1 here; renaming must not change that.
    path = tmp_path / "patterns.jsonl"
    write_patterns(str(path), as_result([SpatialPattern(frozenset({0, 1}), Gid(0, 0), 2)],
                                        tree.words), vocab)
    assert read_patterns(str(path))[0]["words"] == ["rare", "common"]


def test_pattern_lines_are_json_dumps_of_each_pattern(tmp_path):
    vocab = Vocabulary()
    names = ['quo"te', "back\\slash", "café", "tab\there", "ctrl\x01", "日本"]
    for w in names:
        vocab.intern(w)
    table = WordTable({0: 9, 1: 8, 2: 7, 3: 6, 4: 5, 5: 9})
    patterns = [SpatialPattern(frozenset({2, 5, 0}), Gid(2, 0b0110), 12),
                SpatialPattern(frozenset({1, 3}), Gid(2, 0b0110), 7),
                SpatialPattern(frozenset({4}), Gid(0, 0), 5)]
    path = tmp_path / "patterns.jsonl"
    write_patterns(str(path), as_result(patterns, table), vocab)
    want = "".join(
        json.dumps({"words": [names[w] for w in sorted(p.words, key=table.rank.__getitem__)],
                    "gid": gid_str(p.gid), "level": p.gid.level, "count": p.count},
                   ensure_ascii=False) + "\n"
        for p in patterns)
    assert path.read_text(encoding="utf-8") == want
