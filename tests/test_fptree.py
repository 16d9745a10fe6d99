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
    build_fp_tree,
    powerset_counts,
)
from spatialfp.fptree import fp_growth, tree_from_weighted_paths


def test_growth_on_the_five_transaction_example():
    base = build_fp_tree(DINING_TRANSACTIONS, 2)
    assert fp_growth(base, 2) == DINING_EXPECTED


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
    # restaurant], each weight 1; only expensive reaches 2.
    assert sorted(prefixes) == [((EXPENSIVE, ITALIAN), 1), ((EXPENSIVE, RESTAURANT), 1)]
    cond = tree_from_weighted_paths(prefixes, 2)
    assert cond == {(EXPENSIVE,): 2}
    assert fp_growth(cond, 2) == {frozenset({EXPENSIVE}): 2}


def test_shared_prefixes_collapse():
    base = tree_from_weighted_paths([((0, 1), 1), ((0, 2), 1), ((0, 1), 2)], 1)
    assert base == {(0, 1): 3, (0, 2): 1}


def test_weighted_paths_drop_everything_below_minsup():
    base = tree_from_weighted_paths([((0,), 1)], 2)
    assert not base
    assert fp_growth(base, 2) == {}


def test_insert_path_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        tree_from_weighted_paths([((0,), 0)], 1)


def test_fp_growth_rejects_bad_minsup():
    with pytest.raises(ValueError):
        fp_growth({}, 0)


transactions = st.lists(
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
    min_size=1, max_size=12)


@given(transactions, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_growth_matches_powerset_counting(txs, sigma):
    base = build_fp_tree(txs, sigma)
    assert fp_growth(base, sigma) == powerset_counts(txs, sigma)


@given(transactions)
@settings(max_examples=40, deadline=None)
def test_growth_supports_are_antimonotone(txs):
    found = fp_growth(build_fp_tree(txs, 1), 1)
    for items, count in found.items():
        for w in items:
            if len(items) > 1:
                assert found[items - {w}] >= count
