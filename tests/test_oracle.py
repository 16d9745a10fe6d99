import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    A,
    B,
    DINING_EXPECTED,
    DINING_TRANSACTIONS,
    REF_GRID,
    REF_PATTERNS,
    powerset_counts,
    reference_records,
)
from spatialfp.engine import mine
from spatialfp.grid import BoundingBox, GeoPoint, Grid
from spatialfp.oracle import apriori, compare, group_by_cell, reference_patterns
from spatialfp.spatial_mining import patterns_to_dict
from spatialfp.text import GeoRecord


def test_apriori_on_the_five_transaction_example():
    txs = [frozenset(t) for t in DINING_TRANSACTIONS]
    assert apriori(txs, 2) == DINING_EXPECTED


def test_apriori_empty_and_bad_sigma():
    assert apriori([], 2) == {}
    with pytest.raises(ValueError):
        apriori([frozenset({1})], 0)


transactions = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
    min_size=1, max_size=12)


@given(transactions, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_apriori_matches_powerset_counting(txs, sigma):
    assert apriori(txs, sigma) == powerset_counts(txs, sigma)


def test_group_by_cell_levels():
    records = reference_records()
    leaf = group_by_cell(records, REF_GRID, 1)
    assert set(leaf) == {0b00, 0b01}
    assert leaf[0b00] == [records[0].words, records[1].words]
    assert leaf[0b01] == [records[2].words, records[3].words]
    root = group_by_cell(records, REF_GRID, 0)
    assert set(root) == {0} and len(root[0]) == 4


def test_group_by_cell_skips_out_of_box():
    records = [GeoRecord("far", frozenset({A}), GeoPoint(9.0, 9.0))]
    assert group_by_cell(records, REF_GRID, 0) == {}


def test_reference_patterns_on_the_four_record_db():
    assert reference_patterns(reference_records(), REF_GRID, [2, 2]) == REF_PATTERNS


def test_reference_patterns_respects_per_level_sigmas():
    # Raising the leaf sigma to 3 keeps only the root-level patterns.
    got = reference_patterns(reference_records(), REF_GRID, [2, 3])
    assert got == {k: v for k, v in REF_PATTERNS.items() if k[1] == 0}


def test_compare_identical():
    report = compare(REF_PATTERNS, dict(REF_PATTERNS))
    assert report.ok
    assert report.lines() == []
    assert report.summary() == "only_a=0 only_b=0 mismatched=0"


def test_compare_reports_all_three_difference_kinds():
    a = dict(REF_PATTERNS)
    b = dict(REF_PATTERNS)
    extra = (frozenset({A, B}), 1, 0b01)
    del a[(frozenset({A}), 0, 0)]           # only in b
    b[extra] = 2                            # only in b as well
    b[(frozenset({B}), 1, 0)] += 1          # count mismatch
    report = compare(a, b)
    assert not report.ok
    assert set(report.only_b) == {(frozenset({A}), 0, 0), extra}
    assert report.only_a == {}
    assert report.mismatched == {(frozenset({B}), 1, 0): (2, 3)}
    lines = report.lines()
    assert any("only in b" in line for line in lines)
    assert any("count mismatch" in line for line in lines)
    assert report.summary() == "only_a=0 only_b=2 mismatched=1"


def test_compare_lines_are_truncated():
    a = {(frozenset({i}), 0, 0): 1 for i in range(30)}
    report = compare(a, {})
    lines = report.lines(limit=5)
    assert len([l for l in lines if l.startswith("only in a: level=")]) == 5
    assert lines[-1] == "only in a: ... 25 more"


def test_reference_patterns_three_level_grid():
    # One cluster of identical records deep in one corner; counts must
    # survive aggregation to every level.
    grid = Grid(BoundingBox(0.0, 0.0, 8.0, 8.0), 3)
    records = [GeoRecord(str(i), frozenset({A, B}), GeoPoint(0.2, 0.2))
               for i in range(3)]
    got = reference_patterns(records, grid, [2, 2, 2, 2])
    for level in range(4):
        assert got[(frozenset({A, B}), level, 0)] == 3
    assert len(got) == 12


def test_the_oracle_loads_no_miner_module():
    # The package's __init__ imports the miner, so the probe stands in a
    # bare package for it and sees only what ``oracle`` itself loads.
    code = """if True:
        import importlib.util, sys, types
        pkg = types.ModuleType("spatialfp")
        pkg.__path__ = importlib.util.find_spec("spatialfp").submodule_search_locations
        sys.modules["spatialfp"] = pkg
        import spatialfp.oracle
        print(" ".join(sorted(m for m in sys.modules if m.startswith("spatialfp."))))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    loaded = set(out.stdout.split())
    assert "spatialfp.oracle" in loaded
    assert not loaded & {"spatialfp.spatial_tree", "spatialfp.spatial_mining", "spatialfp.engine"}


def test_words_of_any_collection_type_mine_alike():
    # The miner takes a record's words from any iterable; so does the
    # oracle, whatever order or collection they come in.
    points = [GeoPoint(1.0, 1.0), GeoPoint(1.0, 1.0), GeoPoint(3.0, 3.0), GeoPoint(1.0, 3.0)]
    wordsets = [[1, 2], [2, 1, 3], [3, 2], [1, 3, 2]]
    results = []
    for kind in (list, tuple, frozenset):
        records = [GeoRecord(str(i), kind(words), p)
                   for i, (words, p) in enumerate(zip(wordsets, points))]
        got = reference_patterns(records, REF_GRID, [2, 2])
        assert compare(patterns_to_dict(mine(records, [2, 2], REF_GRID)[0]), got).ok
        results.append(got)
    assert results[0] == results[1] == results[2]
    assert results[0][(frozenset({1, 2, 3}), 0, 0)] == 2
