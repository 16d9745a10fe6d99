import random

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
    build_fp_tree,
    ordered_paths,
    path_base,
    path_growth,
    powerset_counts,
)
from spatialfp.fptree import fp_growth, tree_from_weighted_paths


def mine(paths, minsup):
    """Both steps of the vertical miner, keyed by item set."""
    found = fp_growth(tree_from_weighted_paths(paths, minsup), minsup)
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
    # restaurant], each weight 1; only expensive reaches 2, and the two
    # pruned paths merge into one bit of weight 2.
    assert sorted(prefixes) == [((EXPENSIVE, ITALIAN), 1), ((EXPENSIVE, RESTAURANT), 1)]
    cond = tree_from_weighted_paths(prefixes, 2)
    assert list(cond) == [(EXPENSIVE, 0b1, 2)]
    assert cond.planes == [(1, 0b1)]
    assert fp_growth(cond, 2) == [((EXPENSIVE,), 2)]
    assert path_base(prefixes, 2) == {(EXPENSIVE,): 2}


def test_shared_prefixes_collapse():
    base = tree_from_weighted_paths([((0, 1), 1), ((0, 2), 1), ((0, 1), 2)], 1)
    # Bit 0 is the path (0, 1) of weight 3, bit 1 the path (0, 2) of weight 1.
    assert list(base) == [(2, 0b10, 1), (1, 0b01, 3), (0, 0b11, 4)]
    assert base.planes == [(0, 0b11), (1, 0b01)]
    assert path_base([((0, 1), 1), ((0, 2), 1), ((0, 1), 2)], 1) == {(0, 1): 3, (0, 2): 1}


def test_weighted_paths_drop_everything_below_minsup():
    base = tree_from_weighted_paths([((0,), 1)], 2)
    assert not base
    assert fp_growth(base, 2) == []


def test_insert_path_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        tree_from_weighted_paths([((0,), 0)], 1)
    with pytest.raises(ValueError):
        tree_from_weighted_paths([((0,), 1), ((1,), -3)], 1)


def test_fp_growth_rejects_bad_minsup():
    with pytest.raises(ValueError):
        fp_growth(tree_from_weighted_paths([((0,), 1)], 1), 0)


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
# 1 (one bit plane) to 2**20 (up to 21 planes).
weighted_paths = st.lists(
    st.tuples(st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=5)
              .map(lambda items: tuple(sorted(items))),
              st.one_of(st.just(1), st.integers(min_value=1, max_value=4),
                        st.integers(min_value=1, max_value=2 ** 20))),
    min_size=1, max_size=14)


@given(weighted_paths, st.data())
@settings(max_examples=150, deadline=None)
def test_vertical_growth_matches_the_path_reference(paths, data):
    # Repeat some paths, so that equal paths must merge.
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
    base = tree_from_weighted_paths(paths, 400)
    assert max(tids.bit_length() for _, tids, _ in base) > 2000
    assert mine(paths, 400) == path_growth(path_base(paths, 400), 400)
