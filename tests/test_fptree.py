import random
import tracemalloc
from itertools import accumulate, chain, repeat, starmap

import numpy as np
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
    grow_cells,
    growth_pairs,
    ordered_paths,
    path_base,
    path_growth,
    powerset_counts,
)
from spatialfp import spatial_mining
from spatialfp.spatial_mining import Bases, fp_growth, tree_from_weighted_paths


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
    # Rank 9's base: item 7 in words 0-1, item 2 in words 2-3. Each cell
    # takes the words its bits [lo, hi) touch, the bits outside masked.
    top = 1 << 63
    bits = np.array([0b101 | top, 0b11, 0b10, top, 0], np.uint64)
    bases = Bases(np.array([9]), np.array([9, 9]), np.array([7, 2]), np.array([0, 2]),
                  np.array([5, 2]), bits)
    lo, hi, sigma = np.array([1, 64, 0]), np.array([65, 128, 128]), np.array([2, 1, 3])
    got = tree_from_weighted_paths(bases, np.array([9, 9, 9], np.uint16), lo, hi, sigma)
    assert sorted(got) == [1, 2]
    # Cell 0 (bits 1-64, sigma 2) keeps item 7 (3 bits) but not item 2 (1
    # bit); cell 2 (all bits, sigma 3) drops item 2 by its total of 2.
    cell, ranks, count, rows = got[2]
    assert cell.tolist() == [0, 2] and ranks.tolist() == [[7, 9], [7, 9]]
    assert count.tolist() == [3, 5] and rows.tolist() == [[0b100 | top, 0b1], [0b101 | top, 0b11]]
    # Cell 1 (bits 64-127) is one word wide.
    cell, ranks, count, rows = got[1]
    assert cell.tolist() == [1, 1] and ranks.tolist() == [[7, 9], [2, 9]]
    assert count.tolist() == [2, 1] and rows.tolist() == [[0b11], [top]]
    assert ranks.dtype == np.uint16 and rows.dtype == np.uint64


def test_cells_of_different_widths_share_a_bucket():
    # Windows of 3 and 4 words grow in the bucket of 4, 5 and 8 in that of
    # 8, each row padded with zero words.
    paths = [((0, 1), 300), ((1, 2), 200), ((0, 1, 2), 100)]
    base = bit_base(paths, 1)
    cells = [(0, 192, 1), (0, 256, 1), (1, 300, 50), (64, 576, 1)]
    lo, hi, sigma = (np.array(c) for c in zip(*cells))
    rank = np.full(4, 9, np.uint16)
    span = 10
    bits = np.zeros(len(base) * span + 1, np.uint64)
    for g, (_, tids, _) in enumerate(base):
        bits[g * span:(g + 1) * span] = np.frombuffer(tids.to_bytes(span * 8, "little"), "<u8")
    bases = Bases(np.array([9]), np.full(3, 9), np.array([2, 1, 0]), np.arange(3) * span,
                  np.array([300, 600, 400]), bits)
    got = tree_from_weighted_paths(bases, rank, lo, hi, sigma)
    assert sorted(got) == [4, 8]
    # Item 2 first occurs at record 300, so cells 0 and 1 drop it.
    assert got[4][0].tolist() == [0, 0, 1, 1] and got[8][0].tolist() == [2, 2, 3, 3, 3]
    assert not got[4][3][:2, 3].any() and not got[8][3][:2, 5:].any()
    want = [path_growth(path_base([(path, 1) for path in records[lo:hi]], minsup), minsup)
            for records in [list(chain.from_iterable(starmap(repeat, paths)))]
            for lo, hi, minsup in cells]
    assert [as_supports(found) for found in grow_cells(base, cells)] == want


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
    [cell] = grow_cells(base, [(2, 100_006, 4)])
    assert as_supports(cell) == path_growth(
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
    [cell] = grow_cells(bit_base(pairs, floor), [(at[lo], at[hi], minsup)])
    assert as_supports(cell) == path_growth(path_base(pairs[lo:hi], minsup), minsup)
    assert len(cell) == len(as_supports(cell))  # every itemset once, its items ascending


# Cell ends a word boundary away, one bit past it, one bit before the
# next and on it.
ends = st.tuples(st.integers(min_value=0, max_value=12), st.sampled_from([0, 1, 63, 64]))


@pytest.mark.parametrize("chunk", [1, 1 << 62])
@given(weighted_paths, st.data())
@settings(max_examples=60, deadline=None)
def test_batched_cells_match_the_path_reference(chunk, paths, data):
    # Many cells of one base at once, of widths up to 13 words, so that
    # several share a bucket; each with its level's sigma. Candidates are
    # made one word at a time, or every pair of a level at once.
    paths = [(path, min(weight, 64)) for path, weight in paths]
    records = list(chain.from_iterable(starmap(repeat, paths)))
    sigmas = data.draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    cells = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        lo, hi = sorted(min(64 * word + bit, len(records)) for word, bit in
                        (data.draw(ends), data.draw(ends)))
        cells.append((lo, hi, sigmas[data.draw(st.integers(0, len(sigmas) - 1))]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial_mining, "CHUNK_WORDS", chunk)
        got = grow_cells(bit_base(paths, min(sigmas)), cells)
    for (lo, hi, minsup), found in zip(cells, got):
        want = path_growth(path_base([(path, 1) for path in records[lo:hi] if path], minsup),
                           minsup)
        assert as_supports(found) == want and len(found) == len(want)


def test_growth_temporaries_are_bounded_by_the_chunk(monkeypatch):
    # 400 members of one cell, 16 words each: 79,800 candidate pairs, 10 MB
    # of rows if a level's pairs were made at once. Members 0-5 share one
    # record, so all 57 of their sets of two or more are frequent; no
    # other member shares a record with any.
    monkeypatch.setattr(spatial_mining, "CHUNK_WORDS", 1 << 12)
    n, width = 400, 16
    rows = np.zeros((n, width), np.uint64)
    rows[np.arange(n), np.arange(n) % width] = np.uint64(1) << (np.arange(n) // width).astype(np.uint64)
    rows[:6, 0] |= np.uint64(1) << np.uint64(63)
    ranks = np.stack((np.arange(n, 0, -1), np.full(n, n + 1)), 1).astype(np.uint16)
    cell, minsup = np.zeros(n, np.int64), np.array([1])
    tracemalloc.start()
    try:
        grown = fp_growth(rows, ranks, cell, minsup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(found) for found, _, _ in grown] == [15, 20, 15, 6, 1]
    assert all(found[:, 1:-1].min() >= n - 5 for found, _, _ in grown)
    pairs = n * (n - 1) // 2
    assert pairs * width * 8 > 10_000_000 and peak < 8 * spatial_mining.CHUNK_WORDS * 8
