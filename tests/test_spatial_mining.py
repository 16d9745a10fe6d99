import random

import pytest

from helpers import (
    FUZZ_BBOX,
    A,
    B,
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
    mine_patterns,
    path_growth,
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
    expand_sigmas,
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
    # Raw tuples carry ranks (a = 0, b = 1), suffix first.
    assert sorted(mine_tree(ref_tree, [2, 2])) == [
        ((0,), 0, 0, 3), ((0,), 1, 0b00, 2),
        ((1,), 0, 0, 3), ((1,), 1, 0b00, 2),
        ((1, 0), 0, 0, 2), ((1, 0), 1, 0b00, 2)]
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
    shortfalls = []
    build = spatial_mining.tree_from_weighted_paths

    def spy(paths, minsup):
        shortfalls.append(minsup - sum(weight for _, weight in paths))
        return build(paths, minsup)

    monkeypatch.setattr(spatial_mining, "tree_from_weighted_paths", spy)
    # a and b occur three times each in one cell; b's one non-empty
    # prefix path, [a], has weight 1, below sigma 2, and a has none.
    records = [GeoRecord(str(i), frozenset(words), GeoPoint(1.0, 1.0))
               for i, words in enumerate([{A}, {A}, {A, B}, {B}, {B}])]
    tree = build_tree(records, 2, REF_GRID)
    assert patterns_to_dict(mine_patterns(tree, [2, 2])) == {
        (frozenset({A}), 1, 0): 3, (frozenset({B}), 1, 0): 3,
        (frozenset({A}), 0, 0): 3, (frozenset({B}), 0, 0): 3}
    assert shortfalls == []
    for seed in range(6):
        records, grid, sigma = fuzz_instance(seed)
        mine_tree(build_tree(records, sigma, grid), [sigma] * (grid.height + 1))
    assert shortfalls and max(shortfalls) <= 0


def test_sort_patterns_restores_canonical_order(ref_tree):
    patterns = mine_patterns(ref_tree, [2, 2])
    # Raw tuples the way mine_tree emits them: ranks suffix first.
    rank = ref_tree.words.rank
    raw = [(tuple(sorted((rank[w] for w in p.words), reverse=True)),
            p.gid.level, p.gid.code, p.count) for p in patterns]
    assert any(ranks != tuple(sorted(ranks)) for ranks, *_ in raw)
    random.Random(5).shuffle(raw)
    got = canonical(raw, ref_tree.words)
    assert got == patterns
    # One Gid object per cell, shared by its patterns.
    assert len({id(p.gid) for p in got}) == len({p.gid for p in got}) == 2


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_canonical_rows_match_the_object_reference(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    raw = mine_tree(tree, [sigma] * (grid.height + 1))
    random.Random(seed).shuffle(raw)
    want = canonical_patterns(raw, tree.words)
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
