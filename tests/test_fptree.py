import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DINING_EXPECTED,
    DINING_TRANSACTIONS,
    EXPENSIVE,
    ITALIAN,
    PIZZA,
    RESTAURANT,
    as_supports,
    bit_base,
    build_fp_tree,
    growth_pairs,
    ordered_paths,
    path_base,
    path_growth,
    powerset_counts,
)
from spatialfp.spatial_mining import cell_base, tree_from_weighted_paths


def mine(paths, minsup):
    """Both steps of the vertical miner, keyed by item set."""
    found = growth_pairs(bit_base(paths, minsup), minsup)
    supports = as_supports(found)
    assert len(supports) == len(found)  # every itemset emitted once
    return supports


def test_growth_on_the_five_transaction_example():
    assert mine(ordered_paths(DINING_TRANSACTIONS, 2), 2) == DINING_EXPECTED
    assert path_growth(build_fp_tree(DINING_TRANSACTIONS, 2), 2) == DINING_EXPECTED


def test_header_order_is_total_desc_then_wid():
    # Totals: expensive 4, restaurant 4, italian 3, pizza 2, coffee 1;
    # coffee is dropped and the tie on 4 goes to the lower word id.
    base = build_fp_tree(DINING_TRANSACTIONS, 2)
    assert base == {
        (EXPENSIVE, RESTAURANT, ITALIAN): 1,
        (EXPENSIVE, RESTAURANT): 1,
        (EXPENSIVE, ITALIAN, PIZZA): 1,
        (EXPENSIVE, RESTAURANT, PIZZA): 1,
        (RESTAURANT, ITALIAN): 1,
    }


def test_conditional_tree_prunes_below_minsup():
    base = build_fp_tree(DINING_TRANSACTIONS, 2)
    prefixes = [(path[:path.index(PIZZA)], weight)
                for path, weight in base.items() if PIZZA in path]
    # pizza's prefix paths are [expensive, italian] and [expensive,
    # restaurant], each weight 1; only expensive reaches 2. Each record
    # keeps its own bit, so expensive's tidset covers both.
    assert sorted(prefixes) == [((EXPENSIVE, ITALIAN), 1), ((EXPENSIVE, RESTAURANT), 1)]
    cond = bit_base(prefixes, 2)
    assert cond == [(EXPENSIVE, 0b11, 2)]
    assert growth_pairs(cond, 2) == [((EXPENSIVE,), 2)]
    assert path_base(prefixes, 2) == {(EXPENSIVE,): 2}


def test_shared_prefixes_collapse():
    pairs = [((0, 1), 1), ((0, 2), 1), ((0, 1), 2)]
    base = bit_base(pairs, 1)
    # One bit per record, pair by pair: the path (0, 1) holds bit 0 and
    # bits 2 and 3 (weights 1 and 2), the path (0, 2) bit 1; supports are
    # those of the merged paths.
    assert base == [(2, 0b0010, 1), (1, 0b1101, 3), (0, 0b1111, 4)]
    assert as_supports(growth_pairs(base, 1)) == {
        frozenset({0}): 4, frozenset({1}): 3, frozenset({2}): 1,
        frozenset({0, 1}): 3, frozenset({0, 2}): 1}
    assert path_base(pairs, 1) == {(0, 1): 3, (0, 2): 1}
    assert path_growth(path_base(pairs, 1), 1) == as_supports(growth_pairs(base, 1))


def test_packed_rows_become_a_base():
    # Two tidsets of two bytes each, the second at byte 3 of the buffer;
    # bytes run least significant first.
    tids = memoryview(bytes([0b101, 0b1, 0xff, 0b10, 0b0]))
    assert tree_from_weighted_paths(tids, 2, [(7, 0, 3), (2, 3, 1)]) == [
        (7, 0b1_00000101, 3), (2, 0b10, 1)]
    assert tree_from_weighted_paths(tids, 2, []) == []


def test_weighted_paths_drop_everything_below_minsup():
    base = bit_base([((0,), 1)], 2)
    assert not base
    assert growth_pairs(base, 2) == []


def test_insert_path_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        bit_base([((0,), 0)], 1)
    with pytest.raises(ValueError):
        bit_base([((0,), 1), ((1,), -3)], 1)


def test_fp_growth_rejects_bad_minsup():
    with pytest.raises(ValueError):
        growth_pairs(bit_base([((0,), 1)], 1), 0)


transactions = st.lists(
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
    min_size=1, max_size=12)


@given(transactions, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_growth_matches_powerset_counting(txs, sigma):
    assert mine(ordered_paths(txs, sigma), sigma) == powerset_counts(txs, sigma)


@given(transactions)
@settings(max_examples=40, deadline=None)
def test_growth_supports_are_antimonotone(txs):
    found = mine(ordered_paths(txs, 1), 1)
    for items, count in found.items():
        for w in items:
            if len(items) > 1:
                assert found[items - {w}] >= count


# Weighted paths in one item order: single items among them, weights from
# 1 to 2**12, so a pair's bits can run over many bytes. Each record costs
# one step of the bit loop, so heavier weights only slow the tests; one
# pair of 100,000 records is pinned below.
weighted_paths = st.lists(
    st.tuples(st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=5)
              .map(lambda items: tuple(sorted(items))),
              st.one_of(st.just(1), st.integers(min_value=1, max_value=4),
                        st.integers(min_value=1, max_value=2 ** 12))),
    min_size=1, max_size=14)


@given(weighted_paths, st.data())
@settings(max_examples=150, deadline=None)
def test_vertical_growth_matches_the_path_reference(paths, data):
    # Repeat some paths: equal paths keep one bit each and add up.
    paths = paths + paths[:data.draw(st.integers(min_value=0, max_value=len(paths)))]
    totals: dict[int, int] = {}
    for path, weight in paths:
        for item in path:
            totals[item] = totals.get(item, 0) + weight
    minsup = data.draw(st.integers(min_value=1, max_value=max(totals.values()) + 1))
    assert mine(paths, minsup) == path_growth(path_base(paths, minsup), minsup)


def test_vertical_growth_on_a_base_of_many_paths():
    # About 3,000 distinct paths: each tidset spans many machine words.
    rnd = random.Random(5)
    paths = [(tuple(sorted(rnd.sample(range(24), 5))), rnd.randint(1, 9)) for _ in range(3000)]
    base = bit_base(paths, 400)
    assert max(tids.bit_length() for _, tids, _ in base) > 2000
    assert mine(paths, 400) == path_growth(path_base(paths, 400), 400)


def test_one_pair_of_many_records():
    # One pair stands for 100,000 records, between two light ones: its
    # bits are one run, and a cell cut through it keeps part of the run.
    paths = [((0, 2), 3), ((0, 1, 2), 100_000), ((1, 2), 5)]
    base = bit_base(paths, 4)
    assert [(item, tids.bit_count(), support) for item, tids, support in base] == [
        (2, 100_008, 100_008), (1, 100_005, 100_005), (0, 100_003, 100_003)]
    assert mine(paths, 4) == path_growth(path_base(paths, 4), 4)
    cell = cell_base(base, 2, 100_006, 4)
    assert as_supports(growth_pairs(cell, 4)) == path_growth(
        path_base([((0, 2), 1), ((0, 1, 2), 100_000), ((1, 2), 3)], 4), 4)


@given(weighted_paths, st.data())
@settings(max_examples=150, deadline=None)
def test_cell_slices_match_the_path_reference(pairs, data):
    # Duplicate pairs, as one node's path under several leaves of a cell.
    pairs = pairs + pairs[:data.draw(st.integers(min_value=0, max_value=len(pairs)))]
    pairs = data.draw(st.permutations(pairs))
    lo = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(pairs)))
    # A cell is a run of pairs, and its bits are their records: the
    # prefix sums of the weights give its bit range.
    at = [0, *accumulate(weight for _, weight in pairs)]
    totals: dict[int, int] = {}
    for path, weight in pairs[lo:hi]:
        for item in path:
            totals[item] = totals.get(item, 0) + weight
    minsup = data.draw(st.integers(min_value=1, max_value=max(totals.values(), default=0) + 1))
    floor = data.draw(st.integers(min_value=1, max_value=minsup))
    cell = cell_base(bit_base(pairs, floor), at[lo], at[hi], minsup)
    assert [item for item, _, _ in cell] == sorted((item for item, _, _ in cell), reverse=True)
    assert as_supports(growth_pairs(cell, minsup)) == path_growth(path_base(pairs[lo:hi], minsup),
                                                               minsup)
