import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    A,
    B,
    C,
    FUZZ_BBOX,
    REF_GRID,
    OrderViolation,
    ReferenceTree,
    build_tree,
    check_header_consistency,
    check_mass_conservation,
    check_prefix_order,
    columns_of,
    dump,
    fuzz_instance,
    mine_patterns,
    node_cells,
    node_path,
    record_cell_counts,
    reference_insert,
    reference_records,
    reference_tree,
    sorted_records,
    tree_cell_totals,
    tree_equal,
)
from spatialfp.errors import PointOutOfBounds
from spatialfp.grid import MAX_HEIGHT, BoundingBox, GeoPoint, Grid, encode
from spatialfp.oracle import reference_patterns
from spatialfp.spatial_mining import patterns_to_dict
from spatialfp.spatial_tree import (
    WordTable,
    insert_record,
    scan_counts,
)
from spatialfp.text import GeoRecord

NAMES = {A: "a", B: "b", C: "c"}.get


def test_first_scan_counts_and_prunes():
    words, cols, records, skipped, distinct = scan_counts(reference_records(), 2, REF_GRID)
    assert words.counts == {A: 3, B: 3}
    assert words.order == [A, B]
    assert words.rank == {A: 0, B: 1}
    assert C not in words.rank
    # The (word, cell) header, read off the tree, has no entry of c.
    header = {(A, 0b00): 2, (A, 0b01): 1, (B, 0b00): 2, (B, 0b01): 1}
    assert record_cell_counts(reference_records(), REF_GRID, words) == header
    assert tree_cell_totals(build_tree(reference_records(), 2, REF_GRID)) == header
    # The columns keep every in-box record, dropped words included.
    assert list(cols.offsets) == [0, 2, 4, 5, 7]
    assert list(cols.leaves) == [0b00, 0b00, 0b01, 0b01]
    assert sorted(cols.wids[5:7]) == [B, C]
    assert (records, skipped, distinct) == (4, 0, 3)


def test_first_scan_skips_out_of_box():
    records = reference_records() + [
        GeoRecord("far", frozenset({A}), GeoPoint(9.0, 9.0))]
    words, cols, seen, skipped, _ = scan_counts(records, 2, REF_GRID)
    assert (seen, skipped) == (5, 1)
    assert words.counts[A] == 3
    assert len(cols.leaves) == 4


def test_first_scan_rejects_bad_sigma():
    with pytest.raises(ValueError):
        scan_counts([], 0, REF_GRID)


def test_word_order_breaks_ties_by_ascending_id():
    words = WordTable({7: 5, 2: 5, 9: 8})
    assert words.order == [9, 2, 7]


def test_filter_sort():
    # The reference pass two drops unretained words, sorts each record's
    # words by the global order and the records by their tuples of ranks.
    words = WordTable({10: 4, 11: 9, 12: 2})
    cols = columns_of([([12, 99, 10, 11], 0b01),
                       ([99], 0b10),  # nothing retained: skipped
                       ([10], 0b11),
                       ([11], 0b00)])
    # Ranks: 11 -> 0, 10 -> 1, 12 -> 2.
    assert list(sorted_records(cols, words)) == [
        ((0,), 0b00), ((0, 1, 2), 0b01), ((1,), 0b11)]


def test_build_tree_structure():
    tree = build_tree(reference_records(), 2, REF_GRID)
    # Shared prefix: both cell-00 records collapse into one a -> b path;
    # r4 keeps only b and starts its own root child.
    assert dump(tree, NAMES) == (
        "(root)\n"
        "  a [00:2, 01:1]\n"
        "    b [00:2]\n"
        "  b [01:1]")
    # Nodes in depth-first order of the sorted records: a, a -> b, b,
    # holding ranks a = 0, b = 1.
    assert list(tree.rank_of) == [-1, 0, 1, 1]
    assert list(tree.parent_of) == [0, 0, 1, 0]
    # The header: rank a's run holds node 1 in both cells, rank b's run
    # node 2 in cell 00 and node 3 in cell 01, each in (leaf, node) order.
    assert list(tree.head_start) == [0, 2, 4]
    assert list(tree.head_leaf) == [0b00, 0b01, 0b00, 0b01]
    assert list(tree.head_node) == [1, 1, 2, 3]
    assert list(tree.head_count) == [2, 1, 2, 1]


def test_nodes_of_lists_distinct_nodes_per_word():
    tree = build_tree(reference_records(), 2, REF_GRID)
    deep, shallow = tree.nodes_of(B)
    assert node_path(tree, deep) == (A, B)
    assert node_cells(tree, deep) == {0b00: 2}
    assert tree.parent_of[shallow] == 0
    assert node_cells(tree, shallow) == {0b01: 1}
    assert deep != shallow
    (top,) = tree.nodes_of(A)
    assert node_cells(tree, top) == {0b00: 2, 0b01: 1}
    assert len(tree.nodes_of(C)) == 0


def _empty_ref_tree() -> ReferenceTree:
    words, *_ = scan_counts(reference_records(), 2, REF_GRID)
    return ReferenceTree(words, REF_GRID.height)


def test_insert_record_rejects_unsorted_and_unknown():
    # The reference tree retains a (rank 0) and b (rank 1).
    tree = _empty_ref_tree()
    for bad in [(1, 0), (0, 0), (2,), (-1,), (-1, 0), (0, 2), (1, 1)]:
        with pytest.raises(OrderViolation):
            reference_insert(tree, bad, 0)
    with pytest.raises(ValueError):
        reference_insert(tree, (0,), 4)  # no such leaf at height 1
    reference_insert(tree, (0, 1), 0)  # the rejected records left no trace
    assert list(tree.finalize().rank_of) == [-1, 0, 1]


def test_insert_record_rejects_records_out_of_order():
    tree = _empty_ref_tree()
    reference_insert(tree, (1,), 0)
    with pytest.raises(OrderViolation):
        reference_insert(tree, (0, 1), 0)  # sorts before (1,)
    tree = _empty_ref_tree()
    reference_insert(tree, (0, 1), 0)
    with pytest.raises(OrderViolation):
        reference_insert(tree, (0,), 0)  # a strict prefix after a longer record


def test_insert_record_accepts_repeated_and_extended_records():
    tree = _empty_ref_tree()
    for ranks, cell in [((0,), 1), ((0, 1), 0), ((0, 1), 0), ((0, 1), 1), ((1,), 1), ((), 1)]:
        reference_insert(tree, ranks, cell)
    tree = tree.finalize()
    assert list(tree.rank_of) == [-1, 0, 1, 1]
    assert list(tree.depth_of) == [0, 0, 1, 0]
    assert node_cells(tree, 1) == {0: 2, 1: 2}
    assert node_cells(tree, 2) == {0: 2, 1: 1}
    assert node_cells(tree, 3) == {1: 1}


def test_finalized_reference_tree_cannot_grow():
    tree = _empty_ref_tree()
    reference_insert(tree, (0, 1), 0)
    tree.finalize()
    with pytest.raises(RuntimeError):
        reference_insert(tree, (0, 1), 0)


@given(st.sampled_from([0, 1, 8, 9, 16, 17, MAX_HEIGHT]), st.data())
@settings(max_examples=150, deadline=None)
def test_array_header_matches_the_reference_loop(height, data):
    # Pass one's columns over word ids 0..v-1, some of them dropped, in
    # any record order: records repeat, keep no word, one word or several,
    # leaves reach the grid's last cell (62 bits at the deepest grid), and
    # there may be no in-box record at all.
    v = data.draw(st.integers(min_value=1, max_value=8))
    words = WordTable(data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=v - 1), st.integers(min_value=1, max_value=4))))
    leaf = st.one_of(st.integers(min_value=0, max_value=4 ** height - 1),
                     st.just(4 ** height - 1))
    records = data.draw(st.lists(st.tuples(
        st.lists(st.integers(min_value=0, max_value=v - 1), unique=True, max_size=v), leaf),
        max_size=40))
    if records:
        records += data.draw(st.lists(st.sampled_from(records), max_size=10))
    cols = columns_of(data.draw(st.permutations(records)))
    assert tree_equal(insert_record(words, cols, height), reference_tree(cols, words, height))


def test_a_long_record_builds_in_time_and_memory_linear_in_entries():
    # One record of 12,000 retained words among 20,000 short ones. A build
    # that pads each record to the longest one costs records x 12,000 here,
    # not the entries, and one that walks the records depth by depth pays
    # its per-depth cost 12,000 times.
    rnd = random.Random(8)
    vocab = 16_000
    words = WordTable({w: vocab - w for w in range(vocab) if w % 4 != 3})  # drops 4,000
    records = [({int(vocab ** rnd.random()) - 1 for _ in range(rnd.randint(1, 5))},
                rnd.randrange(4 ** 5)) for _ in range(20_000)]
    records.insert(12_345, (rnd.sample(range(vocab), vocab), 17))
    cols = columns_of(records)
    want = reference_tree(cols, words, 5)
    assert max(len(ranks) for ranks, _ in sorted_records(cols, words)) == 12_000

    def seconds(build) -> float:
        t = time.perf_counter()
        build()
        return time.perf_counter() - t

    def array_build():
        insert_record(words, cols, 5)

    # Min of three rounds, alternating: the array build must take less
    # than half the time of the reference's loop over the records (about
    # an eighth in practice).
    array_s = reference_s = float("inf")
    for _ in range(3):
        array_s = min(array_s, seconds(array_build))
        reference_s = min(reference_s, seconds(lambda: reference_tree(cols, words, 5)))
    assert 2 * array_s < reference_s, (array_s, reference_s)

    gc.collect()
    tracemalloc.start()
    try:
        tree = insert_record(words, cols, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree_equal(tree, want)
    # About 55 bytes an entry at its peak, the finished tree included.
    assert peak / len(cols.wids) <= 120, peak / len(cols.wids)


def test_rebuild_is_deterministic():
    records = reference_records()
    assert tree_equal(build_tree(records, 2, REF_GRID),
                      build_tree(records, 2, REF_GRID))


def test_tree_equal_detects_extra_record():
    records = reference_records()
    more = records + [GeoRecord("r5", frozenset({A}), GeoPoint(0.5, 3.5))]
    assert not tree_equal(build_tree(records, 2, REF_GRID),
                          build_tree(more, 2, REF_GRID))


@pytest.mark.parametrize("seed", [7, 21, 40])
def test_structural_invariants_on_fuzzed_instances(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    check_mass_conservation(tree, records, grid)
    check_header_consistency(tree, records, grid)
    check_prefix_order(tree)


@pytest.mark.parametrize("seed", [3, 12])
def test_rebuild_determinism_on_fuzzed_instances(seed):
    records, grid, sigma = fuzz_instance(seed)
    assert tree_equal(build_tree(records, sigma, grid),
                      build_tree(records, sigma, grid))


@pytest.mark.parametrize("seed", [5, 21, 33])
def test_shuffled_records_give_identical_arrays(seed):
    records, grid, sigma = fuzz_instance(seed)
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    assert shuffled != records
    assert tree_equal(build_tree(records, sigma, grid),
                      build_tree(shuffled, sigma, grid))


@pytest.mark.parametrize("seed", [4, 13, 40])
def test_nodes_equal_brute_force_prefix_counts(seed):
    records, grid, sigma = fuzz_instance(seed)
    tree = build_tree(records, sigma, grid)
    rank = tree.words.rank
    want: dict[tuple[int, ...], dict[int, int]] = {}
    for rec in records:
        try:
            leaf = encode(rec.point, grid).code
        except PointOutOfBounds:
            continue
        kept = sorted((w for w in rec.words if w in rank), key=rank.__getitem__)
        for j in range(1, len(kept) + 1):
            cells = want.setdefault(tuple(kept[:j]), {})
            cells[leaf] = cells.get(leaf, 0) + 1
    got = {node_path(tree, n): node_cells(tree, n) for n in range(1, len(tree.rank_of))}
    assert len(got) == len(tree.rank_of) - 1  # one node per distinct prefix
    assert got == want


def test_deepest_grid_builds_and_mines():
    # Leaf codes take 62 bits at the deepest grid, so (node, leaf) events
    # cannot share one 64-bit word there.
    records, _, sigma = fuzz_instance(9)
    grid = Grid(FUZZ_BBOX, MAX_HEIGHT)
    tree = build_tree(records, sigma, grid)
    assert len(tree.rank_of) > 100
    check_mass_conservation(tree, records, grid)
    check_header_consistency(tree, records, grid)
    check_prefix_order(tree)
    sigmas = [sigma] * (MAX_HEIGHT + 1)
    assert patterns_to_dict(mine_patterns(tree, sigmas)) == reference_patterns(records, grid, sigmas)


def test_tree_memory_per_node():
    # The tree is flat arrays: well under the ~600 bytes a node that an
    # object per node with two dicts costs.
    rnd = random.Random(11).random
    grid = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), 5)
    records = [GeoRecord(str(i), frozenset(int(5000 ** rnd()) for _ in range(1 + int(rnd() * 9))),
                         GeoPoint(-10.0 + 20.0 * rnd(), -5.0 + 10.0 * rnd()))
               for i in range(20_000)]
    gc.collect()
    tracemalloc.start()
    try:
        tree = build_tree(records, 4, grid)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = len(tree.rank_of) - 1
    assert nodes > 50_000
    assert retained / nodes <= 250
