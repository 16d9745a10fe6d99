import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REF_GRID,
    as_result,
    build_tree,
    mine_patterns,
    read_patterns,
    reference_parse_record_line,
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


def _parse(line, vocab=None, stopwords=NO_STOP, seq=1):
    if vocab is None:
        vocab = Vocabulary()
    return parse_record_line(line, seq, vocab, stopwords)


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


def test_stopwords_apply():
    vocab = Vocabulary()
    rec = _parse('{"text": "the pizzas", "lon": 0, "lat": 0}', vocab,
                 stopwords=frozenset({"the"}))
    assert {vocab.word(w) for w in rec.words} == {"pizzas"}


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


# --- the parser against its reference, line for line -----------------------


def _outcome(parse, line, seq, vocab, stopwords):
    try:
        rec = parse(line, seq, vocab, stopwords)
    except Exception as exc:  # the same error class on both sides, MalformedRecord or not
        return type(exc)
    return rec, type(rec.point.lon), type(rec.point.lat)


def _check_against_reference(lines, stopwords=NO_STOP):
    """Both parsers, each with its own fresh vocabulary, give equal records
    (so equal word ids) or the same error on every line, in order."""
    vocab, ref_vocab = Vocabulary(), Vocabulary()
    for seq, line in enumerate(lines, 1):
        assert (_outcome(parse_record_line, line, seq, vocab, stopwords)
                == _outcome(reference_parse_record_line, line, seq, ref_vocab, stopwords)), line
    assert [vocab.word(w) for w in range(len(vocab))] \
        == [ref_vocab.word(w) for w in range(len(ref_vocab))]


def _malformed_shapes():
    """The malformed line shapes the benchmark corpora mix in."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import corpora
    finally:
        sys.path.pop(0)
    return [shape.format(i=i) for i, shape in enumerate(corpora._MALFORMED)]


EDGE_LINES = [
    '{"words": ["a"], "lon": NaN, "lat": 0.5}',
    '{"words": ["a"], "lon": 0.5, "lat": Infinity}',
    '{"words": ["a"], "lon": -Infinity, "lat": 0.5}',
    '{"words": ["a"], "lon": false, "lat": 0.5}',
    '{"words": ["a"], "lon": 0.5, "lat": true}',
    '{"words": ["a"], "lon": 3, "lat": -4}',
    '{"words": ["a"], "lon": 180.0, "lat": 90.0}',
    '{"words": ["a"], "lon": -180.0, "lat": -90.0}',
    '{"words": ["a"], "lon": 180, "lat": -90}',
    '{"words": ["a"], "lon": 180.00000000000003, "lat": 0.0}',
    '{"words": ["a"], "lon": 0.0, "lat": -90.00000000000001}',
    '{"words": ["a"], "lon": -181, "lat": 0}',
    '{"words": ["a"], "lon": -180.5, "lat": 0.0}',
    '{"words": ["a"], "lon": 180.5, "lat": 0.0}',
    '{"words": ["a"], "lon": 0.0, "lat": -90.5}',
    '{"words": ["a"], "lon": 0.0, "lat": 90.5}',
    '{"words": ["a", 7], "lon": 0.5, "lat": 0.5}',
    '{"words": [1.5], "lon": 0.5, "lat": 0.5}',
    '{"words": [null], "lon": 0.5, "lat": 0.5}',
    '{"words": {"a": 1}, "lon": 0.5, "lat": 0.5}',
    '{"words": null, "text": "null words fall back", "lon": 0.5, "lat": 0.5}',
    '{"id": 12, "words": ["a"], "lon": 0.5, "lat": 0.5}',
    '{"id": null, "words": ["a"], "lon": 0.5, "lat": 0.5}',
    '{"id": 1.5, "words": ["a"], "lon": 0.5, "lat": 0.5}',
    '{"id": ["x"], "words": ["a"], "lon": 0.5, "lat": 0.5}',
    '\ufeff{"words": ["a"], "lon": 0.5, "lat": 0.5}',
    '{"words": ["Straße", "CAFÉ", "ǅemal", "İstanbul", "ß"], "lon": 1.0, "lat": 2.0}',
    '{"text": "Ärger über Öl, naïve café; 東京 タワー", "lon": 1.0, "lat": 2.0}',
    # New words arrive unsorted among known ones: ids go in sorted order.
    '{"words": ["m", "c"], "lon": 0.5, "lat": 0.5}',
    '{"words": ["z", "m", "a", "c", "b"], "lon": 0.5, "lat": 0.5}',
    '{"text": "y m x", "lon": 0.5, "lat": 0.5}',
]


def test_parser_matches_reference_on_edge_lines():
    _check_against_reference(_malformed_shapes() + EDGE_LINES)
    _check_against_reference(EDGE_LINES + _malformed_shapes(), frozenset({"m", "a"}))


_WORD = st.sampled_from(["a", "B", "c", "m", "Zeta", "café", "ß", "İ", "東京", "x y", ""])
_IN_RANGE = st.floats(min_value=-90.0, max_value=90.0)
_COORD = st.one_of(
    st.floats(), st.floats(min_value=-181.0, max_value=181.0),
    st.integers(min_value=-200, max_value=200), st.booleans(), st.none(), _WORD,
    st.sampled_from([180.0, -180.0, 90.0, -90.0, 180, -90]))
_ID = st.one_of(st.none(), st.text(max_size=3), st.integers(), st.booleans())
_WORDS = st.lists(st.one_of(_WORD, _WORD.map(str.upper)), max_size=6)
_TEXT = st.lists(_WORD, max_size=5).map(" ".join)
# Mostly well-formed records, so that the fast paths and interning run.
_GOOD = st.one_of(
    st.fixed_dictionaries({"lon": _IN_RANGE, "lat": _IN_RANGE, "words": _WORDS},
                          optional={"id": _ID, "text": _TEXT}),
    st.fixed_dictionaries({"lon": _IN_RANGE, "lat": _IN_RANGE, "text": _TEXT},
                          optional={"id": _ID}))
_ANY = st.fixed_dictionaries({}, optional={
    "id": _ID,
    "text": st.one_of(_TEXT, st.integers()),
    "words": st.one_of(_WORDS, st.lists(st.one_of(_WORD, st.integers(), st.none()), max_size=3),
                       _WORD, st.none()),
    "lon": _COORD,
    "lat": _COORD,
})
_LINE = st.one_of(
    _GOOD.map(json.dumps),
    _GOOD.map(lambda r: json.dumps(r, ensure_ascii=False)),
    st.tuples(_ANY, st.booleans()).map(lambda r: json.dumps(r[0], ensure_ascii=r[1])),
    _GOOD.map(lambda r: "\ufeff" + json.dumps(r)),
    _GOOD.map(lambda r: json.dumps([r])),
    st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=8), st.sampled_from([NO_STOP, frozenset({"a", "m"})]))
def test_parser_matches_reference_on_built_lines(lines, stopwords):
    _check_against_reference(lines, stopwords)


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
