import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FUZZ_BBOX,
    A,
    B,
    C,
    REF_GRID,
    REF_PATTERNS,
    UnknownEntry,
    build_tree,
    canonical_patterns,
    cell_conditional_tree,
    check_no_duplicates,
    check_subset_closure,
    check_upward_closure,
    fuzz_instance,
    level_table,
    bases_as_ints,
    found_columns,
    found_tuples,
    mine_patterns,
    path_base,
    path_growth,
    rank_paths,
    reference_bases,
    reference_cells,
    reference_records,
    reverse_entries,
)
from spatialfp import engine, spatial_mining
from spatialfp.datagen import GenConfig, generate
from spatialfp.grid import ROOT, GeoPoint, Gid, Grid
from spatialfp.oracle import compare, reference_patterns
from spatialfp.spatial_mining import (
    SpatialPattern,
    canonical,
    conditional_bases,
    expand_sigmas,
    frequent_cells,
    mine_tree,
    patterns_to_dict,
)
from spatialfp.text import GeoRecord


@pytest.fixture(scope="module")
def ref_tree():
    return build_tree(reference_records(), 2, REF_GRID)


def test_expand_sigmas():
    assert expand_sigmas(3, 2) == [3, 3, 3]
    assert expand_sigmas([3], 2) == [3, 3, 3]
    assert expand_sigmas([2, 3, 5], 2) == [2, 3, 5]
    with pytest.raises(ValueError):
        expand_sigmas([2, 3], 2)
    with pytest.raises(ValueError):
        expand_sigmas(0, 1)
    # numpy integers are integers; floats and bools are refused.
    assert expand_sigmas(np.int64(3), 2) == [3, 3, 3]
    for bad in ([2.5], 2.5, True, [True], [2, 3.0, 5]):
        with pytest.raises(TypeError, match="sigma must be an integer"):
            expand_sigmas(bad, 2)


def test_level_table_aggregates_and_filters(ref_tree):
    assert level_table(ref_tree, 1, 1) == {
        (A, 0b00): 2, (A, 0b01): 1, (B, 0b00): 2, (B, 0b01): 1}
    assert level_table(ref_tree, 1, 2) == {(A, 0b00): 2, (B, 0b00): 2}
    assert level_table(ref_tree, 0, 2) == {(A, 0): 3, (B, 0): 3}
    assert level_table(ref_tree, 0, 4) == {}


def test_reverse_entries_walk_the_order_backwards(ref_tree):
    table = level_table(ref_tree, 1, 1)
    assert reverse_entries(table, ref_tree.words) == [
        (B, 0b00, 2), (B, 0b01, 1), (A, 0b00, 2), (A, 0b01, 1)]


def test_cell_conditional_tree_examples(ref_tree):
    # b conditioned on the lower-left cell: one prefix path [a] weight 2.
    cond = cell_conditional_tree(ref_tree, B, Gid(1, 0b00), 2)
    assert cond == {(A,): 2}
    assert path_growth(cond, 2) == {frozenset({A}): 2}

    # At the root, b's second node contributes an empty prefix; a still
    # reaches the threshold only through the deep node.
    cond_root = cell_conditional_tree(ref_tree, B, ROOT, 2)
    assert cond_root == {(A,): 2}

    # b in the lower-right cell: count 1 there, nothing survives sigma 2.
    assert not cell_conditional_tree(ref_tree, B, Gid(1, 0b01), 2)

    # a is the most frequent word, its prefixes are always empty.
    assert not cell_conditional_tree(ref_tree, A, Gid(1, 0b00), 2)


def test_cell_conditional_tree_unknown_word(ref_tree):
    with pytest.raises(UnknownEntry):
        cell_conditional_tree(ref_tree, 99, ROOT, 2)


def test_mine_tree_reference_output(ref_tree):
    # One set of columns per size, ranks (a = 0, b = 1) ascending in each
    # row, every column of the narrowest type; a and b are each in both
    # leaf cells, four header entries.
    raw, header_entries = mine_tree(ref_tree, [2, 2])
    assert [ranks.shape for ranks, *_ in raw] == [(4, 1), (2, 2)]
    assert all(column.dtype == np.uint8 for columns in raw for column in columns)
    assert sorted(found_tuples(raw)) == [
        ((0,), 0, 0, 3), ((0,), 1, 0b00, 2),
        ((0, 1), 0, 0, 2), ((0, 1), 1, 0b00, 2),
        ((1,), 0, 0, 3), ((1,), 1, 0b00, 2)]
    assert header_entries == 4
    patterns = mine_patterns(ref_tree, [2, 2])
    assert patterns_to_dict(patterns) == REF_PATTERNS
    # Canonical order: deepest level first, then cell, then size.
    assert patterns == [
        SpatialPattern(frozenset({A}), Gid(1, 0b00), 2),
        SpatialPattern(frozenset({B}), Gid(1, 0b00), 2),
        SpatialPattern(frozenset({A, B}), Gid(1, 0b00), 2),
        SpatialPattern(frozenset({A}), ROOT, 3),
        SpatialPattern(frozenset({B}), ROOT, 3),
        SpatialPattern(frozenset({A, B}), ROOT, 2),
    ]


def test_mine_tree_wants_per_level_sigmas(ref_tree):
    with pytest.raises(ValueError):
        mine_tree(ref_tree, [2])


def test_slices_below_sigma_never_build_a_base(monkeypatch):
    built = []
    build = spatial_mining.tree_from_weighted_paths

    def spy(bases, *cells):
        built.append(bases)
        return build(bases, *cells)

    monkeypatch.setattr(spatial_mining, "tree_from_weighted_paths", spy)
    # a and b occur three times each in one cell; b's one non-empty
    # prefix path, [a], has weight 1, below sigma 2, and a has none.
    records = [GeoRecord(str(i), frozenset(words), GeoPoint(1.0, 1.0))
               for i, words in enumerate([{A}, {A}, {A, B}, {B}, {B}])]
    tree = build_tree(records, 2, REF_GRID)
    assert patterns_to_dict(mine_patterns(tree, [2, 2])) == {
        (frozenset({A}), 1, 0): 3, (frozenset({B}), 1, 0): 3,
        (frozenset({A}), 0, 0): 3, (frozenset({B}), 0, 0): 3}
    assert built == []
    calls = 0
    for seed in range(6):
        records, grid, sigma = fuzz_instance(seed)
        tree = build_tree(records, sigma, grid)
        built.clear()
        mine_patterns(tree, [sigma] * (grid.height + 1))
        # One base per rank whose records with a non-empty prefix path
        # reach sigma, and none for any other rank.
        assert bases_as_ints(built) == reference_bases(tree, sigma)
        calls += len(built)
    assert calls


def test_a_rank_with_no_frequent_cell_builds_no_base(monkeypatch):
    calls = []
    build = spatial_mining.tree_from_weighted_paths

    def spy(bases, *cells):
        calls.append(bases)
        return build(bases, *cells)

    monkeypatch.setattr(spatial_mining, "tree_from_weighted_paths", spy)
    # b's four records all lie below a, so they reach the floor of 2, but
    # b counts 4 at the root, below 5, and 1 in each leaf cell, below 2.
    points = [GeoPoint(1.0, 1.0), GeoPoint(3.0, 1.0), GeoPoint(1.0, 3.0), GeoPoint(3.0, 3.0)]
    records = [GeoRecord(str(i), frozenset({A, B}), p) for i, p in enumerate(points)]
    records += [GeoRecord(f"a{i}", frozenset({A}), points[0]) for i in range(2)]
    sigmas = [5, 2]
    tree = build_tree(records, min(sigmas), REF_GRID)
    assert [r for r, _ in reference_bases(tree, min(sigmas))] == [tree.words.rank[B]]
    got = patterns_to_dict(mine_patterns(tree, sigmas))
    assert got == reference_patterns(records, REF_GRID, sigmas)
    assert {words for words, *_ in got} == {frozenset({A})}
    assert calls == []


def test_sort_patterns_restores_canonical_order(ref_tree):
    patterns = mine_patterns(ref_tree, [2, 2])
    rank = ref_tree.words.rank
    raw = found_columns([(tuple(rank[w] for w in p.words), p.gid.level, p.gid.code, p.count)
                         for p in patterns])
    raw = [tuple(column[::-1] for column in columns) for columns in raw]
    assert any(found_tuples([columns]) != sorted(found_tuples([columns])) for columns in raw)
    got = canonical(raw, ref_tree.words)
    assert got == patterns
    # One Gid object per cell, shared by its patterns.
    assert len({id(p.gid) for p in got}) == len({p.gid for p in got}) == 2


def _shuffled(raw, rnd):
    out = []
    for columns in raw:
        order = rnd.sample(range(len(columns[0])), len(columns[0]))
        out.append(tuple(column[order] for column in columns))
    return out


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_canonical_rows_match_the_object_reference(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    raw, _ = mine_tree(tree, [sigma] * (grid.height + 1))
    raw = _shuffled(raw, random.Random(seed))
    want = canonical_patterns(found_tuples(raw), tree.words)
    got = canonical(raw, tree.words)
    assert len(want) > 3
    assert list(got) == want and got == want and want == got
    assert len(got) == len(want)
    assert [got[i] for i in range(-len(want), len(want))] == want + want
    assert got[-1] == want[-1] and got[-len(want)] == want[0]
    with pytest.raises(IndexError):
        got[len(want)]
    assert got[1:-1] == want[1:-1] and got[::-2] == want[::-2]
    assert got != want[:-1]
    if seed == 23:
        # Slices crossing list boundaries, both ways, from every start.
        sizes = [n for *_, n in got.blocks]
        assert len(sizes) > 4 and min(sizes) < 4
        for lo in range(len(want)):
            assert got[lo:lo + 5] == want[lo:lo + 5]
            assert got[lo::-3] == want[lo::-3]


@given(st.integers(min_value=1, max_value=17), st.data())
@settings(max_examples=120, deadline=None)
def test_rows_at_the_layout_extremes_match_the_object_reference(width, data):
    # A stand-in word table: ranks 0 .. 2**width - 1 name themselves, so
    # ranks take from one to four bytes; codes up to 62 bits and counts up
    # to 2**40 take eight.
    top = data.draw(st.integers(min_value=1, max_value=2 ** 40))
    words = SimpleNamespace(order=range(1 << width))
    cells = data.draw(st.lists(
        st.integers(min_value=0, max_value=31).flatmap(
            lambda level: st.tuples(st.just(level), st.integers(0, 4 ** level - 1))),
        min_size=1, max_size=4, unique=True))
    raw = {}
    for level, code in cells:
        for ranks in data.draw(st.lists(
                st.frozensets(st.integers(0, (1 << width) - 1), min_size=1, max_size=20),
                min_size=1, max_size=8, unique=True)):
            raw[ranks, level, code] = data.draw(st.integers(min_value=1, max_value=top))
    raw = [(tuple(ranks), level, code, count) for (ranks, level, code), count in raw.items()]
    want = canonical_patterns(raw, words)
    got = canonical(_shuffled(found_columns(raw), random.Random(len(raw))), words)
    assert list(got) == want
    assert [got[i] for i in range(len(want))] == want


def _composed_mine(tree, sigmas):
    """level_table + reverse_entries + cell_conditional_tree, literally."""
    found = {}
    for level in range(tree.height, -1, -1):
        sigma = sigmas[level]
        table = level_table(tree, level, sigma)
        for wid, code, count in reverse_entries(table, tree.words):
            gid = Gid(level, code)
            found[(frozenset({wid}), level, code)] = count
            cond = cell_conditional_tree(tree, wid, gid, sigma)
            for itemset, c in path_growth(cond, sigma).items():
                found[(itemset | {wid}, level, code)] = c
    return found


# Per-level sigma lists, root first, whose smallest value is ``sigma``.
SIGMA_SHAPES = {
    "uniform": lambda height, sigma: [sigma] * (height + 1),
    "increasing": lambda height, sigma: [sigma + k for k in range(height + 1)],
    "decreasing": lambda height, sigma: [sigma + height - k for k in range(height + 1)],
    "mixed": lambda height, sigma: [sigma + (1, 0, 3, 0)[k] for k in range(height + 1)],
}


@pytest.mark.parametrize("seed", [0, 5, 11, 23, 42])
def test_fused_mining_equals_composed_mining(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    sigmas = SIGMA_SHAPES["uniform"](grid.height, sigma)
    assert patterns_to_dict(mine_patterns(tree, sigmas)) == _composed_mine(tree, sigmas)


@pytest.mark.parametrize("shape", sorted(set(SIGMA_SHAPES) - {"uniform"}))
@pytest.mark.parametrize("seed", [0, 5, 11, 23, 42])
def test_fused_mining_equals_composed_mining_per_level_sigmas(seed, shape):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    sigmas = SIGMA_SHAPES[shape](grid.height, sigma)
    assert patterns_to_dict(mine_patterns(tree, sigmas)) == _composed_mine(tree, sigmas)


@pytest.mark.parametrize("shape", sorted(SIGMA_SHAPES))
@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_per_level_sigmas_match_the_brute_force_reference(height, shape):
    grid = Grid(FUZZ_BBOX, height)
    records = generate(GenConfig(
        n_records=600, vocab_size=20, zipf_exponent=0.8,
        words_per_record_mean=5.0, seed=60 + height), grid)
    sigmas = SIGMA_SHAPES[shape](height, 2)
    reference = reference_patterns(records, grid, sigmas)
    # Every level holds multi-word patterns, so each level's sigma is used.
    assert {level for words, level, _ in reference if len(words) > 1} \
        == set(range(height + 1))
    tree = build_tree(records, min(sigmas), grid)
    assert compare(patterns_to_dict(mine_patterns(tree, sigmas)), reference).ok
    patterns, _ = engine.mine(records, sigmas, grid)
    assert compare(patterns_to_dict(patterns), reference).ok


def test_non_monotone_sigmas_match_the_brute_force_reference():
    # The search enters a cell while its total reaches the smallest sigma
    # below it: here level 1's 5 must not stop the descent to level 2's 1.
    grid = Grid(FUZZ_BBOX, 3)
    sigmas = [2, 5, 1, 3]
    records = generate(GenConfig(
        n_records=300, vocab_size=25, zipf_exponent=0.9,
        words_per_record_mean=4.0, seed=71), grid)
    reference = reference_patterns(records, grid, sigmas)
    # Level 2 holds a cell below level 1's sigma whose parent misses it too.
    assert any(count < 5 and reference.get((words, 1, code >> 2), 0) < 5
               for (words, level, code), count in reference.items() if level == 2)
    tree = build_tree(records, min(sigmas), grid)
    assert compare(patterns_to_dict(mine_patterns(tree, sigmas)), reference).ok


@pytest.mark.parametrize("seed", [1, 8, 19, 33])
def test_mining_matches_the_brute_force_reference(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    mined = patterns_to_dict(mine_patterns(tree, [sigma] * (grid.height + 1)))
    assert compare(mined, reference_patterns(
        records, grid, [sigma] * (grid.height + 1))).ok


@pytest.mark.parametrize("seed", [4, 26])
def test_closure_properties_hold(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    patterns = mine_patterns(tree, [sigma] * (grid.height + 1))
    found = patterns_to_dict(patterns)
    check_upward_closure(found, grid.height)
    check_subset_closure(found)
    check_no_duplicates(patterns)


def test_raising_sigma_only_removes_patterns():
    records, grid, sigma = fuzz_instance(14)
    tree = build_tree(records, sigma, grid)
    low = patterns_to_dict(mine_patterns(tree, [sigma] * (grid.height + 1)))
    high = patterns_to_dict(mine_patterns(tree, [sigma * 2] * (grid.height + 1)))
    assert set(high) <= set(low)
    assert all(low[k] == v for k, v in high.items())


@pytest.mark.parametrize("shape", sorted(SIGMA_SHAPES))
@pytest.mark.parametrize("seed", [0, 3, 5, 11, 23, 42])
def test_frequent_cells_match_the_root_down_search(seed, shape):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    sigmas = SIGMA_SHAPES[shape](grid.height, sigma)
    cells, header_entries = frequent_cells(tree, sigmas)
    cells = list(zip(*cells))
    want, want_entries = reference_cells(tree, sigmas)
    assert sorted(cells) == sorted(want) and len(cells) == len(want) > 0
    assert [r for r, *_ in cells] == sorted(r for r, *_ in cells)
    assert header_entries == want_entries == mine_tree(tree, sigmas)[1]


@pytest.mark.parametrize("chunk", [1, 40, 1 << 16])
@pytest.mark.parametrize("shape", sorted(SIGMA_SHAPES))
@pytest.mark.parametrize("seed", [0, 3, 5, 23])
def test_array_bases_match_the_path_reference(seed, shape, chunk, monkeypatch):
    # Chunks of one rank, of a few ranks and of every rank at once.
    monkeypatch.setattr(spatial_mining, "CHUNK_PAIRS", chunk)
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    floor = min(SIGMA_SHAPES[shape](grid.height, sigma))
    got = bases_as_ints(conditional_bases(tree, floor, range(len(tree.words))))
    assert got == reference_bases(tree, floor) and got
    for r, base in got:
        # Each item's support is its summed weight in the merged paths.
        supports: dict[int, int] = {}
        for path, weight in path_base(rank_paths(tree, r), floor).items():
            for item in path:
                supports[item] = supports.get(item, 0) + weight
        assert {item: support for item, _, support in base} == {
            item: support for item, support in supports.items() if support >= floor}
        assert all(tids.bit_count() == support for _, tids, support in base)


def test_a_heavy_rank_sets_its_bits_without_a_temporary_per_bit(monkeypatch):
    # Entries of thousands of records each, in chunks of one rank: some
    # ranges of bits meet at a byte boundary, some end inside a byte.
    monkeypatch.setattr(spatial_mining, "CHUNK_PAIRS", 1)
    groups = [({A, B, C}, GeoPoint(1.0, 1.0), 8000), ({A, B, C}, GeoPoint(3.0, 1.0), 8000),
              ({A, C}, GeoPoint(1.0, 1.0), 4001), ({B, C}, GeoPoint(1.0, 3.0), 5003),
              ({A, B}, GeoPoint(3.0, 3.0), 7)]
    records = [GeoRecord(str(i), frozenset(words), point)
               for i, (words, point, n) in enumerate(groups) for _ in range(n)]
    tree = build_tree(records, 2, REF_GRID)
    tracemalloc.start()
    try:
        chunks = list(conditional_bases(tree, 2, range(len(tree.words))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = bases_as_ints(chunks)
    assert got == reference_bases(tree, 2)
    bits = sum(tids.bit_length() for _, base in got for _, tids, _ in base)
    # The packed buffers, not bytes per bit.
    assert bits > 40_000 and peak < bits
