import pytest

from helpers import (
    A,
    B,
    C,
    REF_GRID,
    check_header_consistency,
    check_mass_conservation,
    check_prefix_order,
    fuzz_instance,
    reference_records,
)
from spatialfp.errors import OrderViolation
from spatialfp.grid import GeoPoint
from spatialfp.spatial_tree import (
    CellTable,
    ScanStats,
    WordTable,
    build_tree,
    dump,
    filter_sort,
    insert_record,
    scan_counts,
    tree_equal,
)
from spatialfp.text import GeoRecord

NAMES = {A: "a", B: "b", C: "c"}.get


def test_first_scan_counts_and_prunes():
    stats = ScanStats()
    words, header, cols = scan_counts(reference_records(), 2, REF_GRID, stats)
    assert words.counts == {A: 3, B: 3}
    assert words.order == [A, B]
    assert words.rank == {A: 0, B: 1}
    assert C not in words
    assert len(header) == 4
    assert header.cells_of(A) == {0b00: 2, 0b01: 1}
    assert header.cells_of(B) == {0b00: 2, 0b01: 1}
    assert header.cells_of(C) == {}  # pruned with its word
    # The columns keep every in-box record, dropped words included.
    assert list(cols.offsets) == [0, 2, 4, 5, 7]
    assert list(cols.leaves) == [0b00, 0b00, 0b01, 0b01]
    assert sorted(cols.wids[5:7]) == [B, C]
    assert stats.records == 4
    assert stats.skipped == 0
    assert stats.distinct_words == 3


def test_first_scan_skips_out_of_box():
    records = reference_records() + [
        GeoRecord("far", frozenset({A}), GeoPoint(9.0, 9.0))]
    stats = ScanStats()
    words, _, cols = scan_counts(records, 2, REF_GRID, stats)
    assert stats.records == 5
    assert stats.skipped == 1
    assert words.counts[A] == 3
    assert len(cols.leaves) == 4


def test_first_scan_rejects_bad_sigma():
    with pytest.raises(ValueError):
        scan_counts([], 0, REF_GRID)


def test_word_order_breaks_ties_by_ascending_id():
    words = WordTable({7: 5, 2: 5, 9: 8})
    assert words.order == [9, 2, 7]


def test_filter_sort():
    words = WordTable({10: 4, 11: 9, 12: 2})
    assert filter_sort({12, 99, 10, 11}, words) == [11, 10, 12]


def test_build_tree_structure():
    tree = build_tree(reference_records(), 2, REF_GRID)
    # Shared prefix: both cell-00 records collapse into one a -> b path;
    # r4 keeps only b and starts its own root child.
    assert dump(tree, NAMES) == (
        "(root)\n"
        "  a [00:2, 01:1]\n"
        "    b [00:2]\n"
        "  b [01:1]")


def test_nodes_of_lists_distinct_nodes_per_word():
    tree = build_tree(reference_records(), 2, REF_GRID)
    deep, shallow = tree.nodes_of(B)
    assert deep.parent.wid == A and deep.cells == {0b00: 2}
    assert shallow.parent.wid == -1 and shallow.cells == {0b01: 1}
    assert deep is not shallow
    (top,) = tree.nodes_of(A)
    assert top.cells == {0b00: 2, 0b01: 1}
    assert tree.nodes_of(C) == []


def test_insert_record_rejects_unsorted_and_unknown():
    tree = build_tree(reference_records(), 2, REF_GRID)
    with pytest.raises(OrderViolation):
        insert_record(tree, [B, A], 0)
    with pytest.raises(OrderViolation):
        insert_record(tree, [A, A], 0)
    with pytest.raises(OrderViolation):
        insert_record(tree, [C], 0)


def test_cell_table_prune_and_items():
    table = CellTable()
    table.add([A, C], 0)
    table.add([A], 1)
    table.add([A], 1)
    assert table.totals() == {A: 3, C: 1}
    table.prune(WordTable({A: 3}))
    assert len(table) == 2
    assert set(table.items()) == {(A, 0, 1), (A, 1, 2)}
    assert table.cells_of(C) == {}


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
    check_header_consistency(tree)
    check_prefix_order(tree)


@pytest.mark.parametrize("seed", [3, 12])
def test_rebuild_determinism_on_fuzzed_instances(seed):
    records, grid, sigma = fuzz_instance(seed)
    assert tree_equal(build_tree(records, sigma, grid),
                      build_tree(records, sigma, grid))
