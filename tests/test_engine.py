import pytest

from helpers import EDGE_BOX, EDGE_CASES, REF_GRID, REF_PATTERNS, fuzz_instance, reference_records
from spatialfp import engine
from spatialfp.datagen import GenConfig, generate
from spatialfp.grid import BoundingBox, GeoPoint, Grid, gid_str
from spatialfp.oracle import compare, reference_patterns
from spatialfp.spatial_mining import patterns_to_dict
from spatialfp.spatial_tree import WordTable
from spatialfp.text import GeoRecord, Vocabulary


def test_resolve_backend():
    for name in (None, "auto", "pure"):
        assert engine.resolve_backend(name) == "pure"
    for name in ("fast", "gpu"):
        with pytest.raises(ValueError):
            engine.resolve_backend(name)


@pytest.mark.parametrize("backend", ["pure"])
def test_mine_reference_db(backend):
    patterns, report = engine.mine(reference_records(), 2, REF_GRID,
                                   backend=backend)
    assert patterns_to_dict(patterns) == REF_PATTERNS
    assert report.backend == backend
    assert report.records == 4
    assert report.mined == 4
    assert report.skipped == 0
    assert report.distinct_words == 3
    assert report.retained_words == 2
    assert report.cell_entries == 4
    assert report.patterns_by_level == {1: 3, 0: 3}
    assert report.pattern_count == 6
    assert isinstance(patterns.words, WordTable)
    for ms in (report.first_scan_ms, report.tree_build_ms, report.growth_ms):
        assert ms >= 0.0


@pytest.mark.parametrize("seed", [2, 9])
def test_default_backend_matches_the_oracle(seed):
    records, grid, sigma = fuzz_instance(seed)
    patterns, _ = engine.mine(records, sigma, grid)
    sigmas = [sigma] * (grid.height + 1)
    assert compare(patterns_to_dict(patterns),
                   reference_patterns(records, grid, sigmas)).ok


def test_default_backend_matches_the_oracle_at_the_reference_shape():
    # The reference corpus's shape (ROADMAP aim 1) at a tenth of its
    # records and vocabulary: thousands of patterns, root to level 4.
    grid = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), 5)
    records = generate(GenConfig(n_records=10_000, vocab_size=5_000, zipf_exponent=0.9,
                                 words_per_record_mean=5.0, seed=17), grid)
    patterns, _ = engine.mine(records, 10, grid)
    found = patterns_to_dict(patterns)
    assert len(found) > 2_000
    assert compare(found, reference_patterns(records, grid, [10] * 6)).ok


def test_per_level_sigmas_differ_from_uniform():
    grid = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), 2)
    records = generate(GenConfig(n_records=300, vocab_size=30,
                                 words_per_record_mean=5.0, seed=13), grid)
    uniform, _ = engine.mine(records, 2, grid)
    stricter, _ = engine.mine(records, [2, 3, 3], grid)
    got = patterns_to_dict(stricter)
    expect = {k: v for k, v in patterns_to_dict(uniform).items()
              if k[1] == 0 or v >= 3}
    assert got == expect


def test_after_scan_hook_runs_before_the_tree_build():
    calls = []
    engine.mine(reference_records(), 2, REF_GRID, after_scan=lambda: calls.append(1))
    assert calls == [1]

    def boom():
        raise RuntimeError("stop here")

    with pytest.raises(RuntimeError, match="stop here"):
        engine.mine(reference_records(), 2, REF_GRID, after_scan=boom)


def _generated_instance():
    grid = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), 2)
    records = generate(GenConfig(n_records=300, vocab_size=30,
                                 words_per_record_mean=5.0, seed=13), grid)
    return records, grid


@pytest.mark.parametrize("backend", ["pure"])
def test_one_shot_source_gives_the_list_result(backend):
    records, grid = _generated_instance()
    listed, _ = engine.mine(records, 5, grid, backend=backend)
    streamed, _ = engine.mine((r for r in records), 5, grid, backend=backend)
    assert any(len(p.words) > 1 for p in listed)
    assert streamed == listed


class _ChangingSource:
    """Yields ``first`` on its first iteration and ``later`` on any other."""

    def __init__(self, first, later):
        self.first, self.later = first, later
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return iter(self.first if self.iterations == 1 else self.later)


@pytest.mark.parametrize("backend", ["pure"])
def test_source_is_read_once(backend):
    records, grid = _generated_instance()
    first, later = records[:150], records[150:]
    source = _ChangingSource(first, later)
    got, report = engine.mine(source, 5, grid, backend=backend)
    want, _ = engine.mine(first, 5, grid, backend=backend)
    assert source.iterations == 1
    assert report.records == len(first)
    assert got == want


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_inputs_mine_cleanly(case):
    raw, height, sigma, rows, summary = EDGE_CASES[case]
    vocab = Vocabulary()
    records = [GeoRecord(f"r{i}", frozenset(vocab.intern(w) for w in sorted(words)),
                         GeoPoint(*point)) for i, (words, point) in enumerate(raw)]
    patterns, report = engine.mine(records, sigma, Grid(EDGE_BOX, height))
    got = [{"words": sorted(vocab.word(w) for w in p.words), "gid": gid_str(p.gid),
            "level": p.gid.level, "count": p.count} for p in patterns]
    assert got == rows
    assert (report.records, report.skipped, report.mined, report.distinct_words,
            report.retained_words, report.cell_entries, report.pattern_count) == tuple(
        summary[key] for key in ("records read", "skipped out-of-box", "records mined",
                                 "distinct words", "retained words", "word-cell entries",
                                 "patterns total"))


def test_a_record_that_repeats_a_word_id_is_refused():
    p = GeoPoint(1.0, 1.0)
    grid = Grid(BoundingBox(0.0, 0.0, 4.0, 4.0), 1)
    with pytest.raises(ValueError, match="repeats a word id"):
        engine.mine([GeoRecord("a", [1, 1, 2], p), GeoRecord("b", [1, 2], p)], 2, grid)
    # A repeated word that pass one drops cannot change the result.
    more = [GeoRecord("b", [1, 2], p), GeoRecord("c", [1, 2], p)]
    got, _ = engine.mine([GeoRecord("a", [1, 2, 3, 3], p), *more], 3, grid)
    want, _ = engine.mine([GeoRecord("a", [1, 2], p), *more], 3, grid)
    assert got == want and len(got) == 6
