"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
"ACCEPTANCE <id> <what>: PASS|FAIL" line on the real stdout, so a piped
pytest run still shows the scorecard. The criteria:

  C1  miner output equals the brute-force reference on 100 seeded instances
  C2  worked micro-examples (reference db, five-transaction db, gid math)
  C3  a planted pattern is recovered in its cell, with subset closure
  C4  scaling trends: linear scan and build, superlinear sub-quadratic growth
  C5  raising sigma never adds patterns and shrinks growth time
  C6  structural invariants on all fuzzed instances
  C7  corpus statistics report the record and word counts
"""

import json
import math
import time
from dataclasses import dataclass

import pytest

from helpers import (
    DINING_EXPECTED,
    DINING_TRANSACTIONS,
    FUZZ_BBOX,
    REF_GRID,
    REF_PATTERNS,
    ancestor_at,
    as_supports,
    bit_base,
    build_tree,
    check_header_consistency,
    check_mass_conservation,
    check_no_duplicates,
    check_prefix_order,
    check_subset_closure,
    check_upward_closure,
    fuzz_instance,
    growth_pairs,
    mine_patterns,
    ordered_paths,
    reference_records,
    run_cli,
    summary_fields,
    tree_equal,
)
from spatialfp import engine, oracle
from spatialfp.datagen import GenConfig, PlantedPattern, generate, word_name
from spatialfp.formats import write_corpus
from spatialfp.grid import BoundingBox, Gid, Grid, gid_str
from spatialfp.spatial_mining import patterns_to_dict
from spatialfp.spatial_tree import scan_counts

# Synthetic corpus shape for the timing criteria, fixed after measuring:
# Zipf weights flat enough that the retained vocabulary
# keeps growing with N, which is what makes growth superlinear.
SCALE_GRID = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), 5)
SCALE_VOCAB = 50_000
SCALE_ZIPF = 0.9
SCALE_MEAN = 5.0
SCALE_SEED = 17
SCALE_SIGMA = 10
SCALE_SIZES = (25_000, 50_000, 100_000, 200_000)

N_FUZZ = 100


def announce(capsys, cid: str, what: str, started: float | None = None) -> None:
    took = f" ({time.perf_counter() - started:.1f}s)" if started is not None else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {cid} {what}: PASS{took}")


def announce_failure(capsys, cid: str, what: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None:
                with capsys.disabled():
                    print(f"ACCEPTANCE {cid} {what}: FAIL")
            return False

    return _Reporter()


@dataclass
class FuzzResult:
    records: list
    grid: Grid
    sigma: int
    patterns: list
    found: dict
    matches_reference: bool


_fuzz_results: list[FuzzResult] = []


def fuzz_results() -> list[FuzzResult]:
    if not _fuzz_results:
        for seed in range(N_FUZZ):
            records, grid, sigma = fuzz_instance(seed)
            sigmas = [sigma] * (grid.height + 1)
            patterns, _ = engine.mine(records, sigmas, grid)
            found = patterns_to_dict(patterns)
            reference = oracle.reference_patterns(records, grid, sigmas)
            _fuzz_results.append(FuzzResult(
                records, grid, sigma, patterns, found,
                oracle.compare(found, reference).ok))
    return _fuzz_results


def _scale_records(n: int):
    return generate(GenConfig(
        n_records=n, vocab_size=SCALE_VOCAB, zipf_exponent=SCALE_ZIPF,
        words_per_record_mean=SCALE_MEAN, seed=SCALE_SEED), SCALE_GRID)


def _slope(xs, ys) -> float:
    n = len(xs)
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / n
    my = sum(ly) / n
    return (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / sum((x - mx) ** 2 for x in lx))


def test_c1_oracle_equivalence(capsys):
    what = f"miner equals brute-force reference on {N_FUZZ} seeded instances"
    started = time.perf_counter()
    with announce_failure(capsys, "C1", what):
        mismatched = [i for i, r in enumerate(fuzz_results())
                      if not r.matches_reference]
        assert mismatched == []
    announce(capsys, "C1", what, started)


def test_c1_check_command_agrees(capsys, tmp_path):
    what = "check command reports identical on sampled instances"
    with announce_failure(capsys, "C1", what):
        for seed in (0, 1, 2):
            records, grid, sigma = fuzz_instance(seed)
            corpus = tmp_path / f"fuzz{seed}.jsonl"
            write_corpus(str(corpus), records, word_name)
            box = FUZZ_BBOX
            proc = run_cli(
                "check", "--input", corpus,
                "--bbox", f"{box.min_lon},{box.min_lat},{box.max_lon},{box.max_lat}",
                "--height", grid.height, "--sigma", sigma)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "identical"
    announce(capsys, "C1", what)


def test_c2_worked_micro_examples(capsys):
    what = "worked micro-examples"
    with announce_failure(capsys, "C2", what):
        # Four-record reference database: exactly six patterns.
        patterns, _ = engine.mine(reference_records(), 2, REF_GRID)
        assert patterns_to_dict(patterns) == REF_PATTERNS
        tree = build_tree(reference_records(), 2, REF_GRID)
        assert patterns_to_dict(mine_patterns(tree, [2, 2])) == REF_PATTERNS

        # Five-transaction database: exactly eight itemsets at minsup 2.
        paths = ordered_paths(DINING_TRANSACTIONS, 2)
        got = as_supports(growth_pairs(bit_base(paths, 2), 2))
        assert got == DINING_EXPECTED

        # Cell id hierarchy walk.
        leaf = Gid(3, 0b000110)
        assert ancestor_at(leaf, 1) == Gid(1, 0b00)
        assert ancestor_at(leaf, 2) == Gid(2, 0b0001)
        assert gid_str(leaf) == "000110"
        assert [gid_str(ancestor_at(leaf, l)) for l in (1, 2)] == ["00", "0001"]
    announce(capsys, "C2", what)


def test_c3_planted_pattern_recovery(capsys):
    what = "planted 3-word pattern recovered with subset closure"
    started = time.perf_counter()
    with announce_failure(capsys, "C3", what):
        grid = Grid(FUZZ_BBOX, 3)
        planted = PlantedPattern((701, 1203, 1777), Gid(3, 0b100110), 50)
        records = generate(GenConfig(
            n_records=50_000, vocab_size=2_000, zipf_exponent=1.1,
            words_per_record_mean=8.0, planted=(planted,), seed=29), grid)
        patterns, _ = engine.mine(records, 10, grid)
        found = patterns_to_dict(patterns)

        words = frozenset(planted.words)
        key = (words, planted.gid.level, planted.gid.code)
        assert key in found, "planted wordset not reported in its cell"
        assert found[key] >= 50
        for w in words:
            for sub in (frozenset({w}), words - {w}):
                sub_key = (sub, planted.gid.level, planted.gid.code)
                assert sub_key in found
                assert found[sub_key] >= found[key]
    announce(capsys, "C3", what, started)


def test_c4_scaling_trends(capsys):
    what = "scan and build scale linearly, growth superlinear sub-quadratic"
    started = time.perf_counter()
    with announce_failure(capsys, "C4", what):
        # All sizes are timed round by round, in alternating order, and
        # each phase keeps its min over four rounds: a shared machine's
        # speed drifts between rounds (one 100k scan read 210 ms in one
        # round and 410 ms in the next), so two runs of a ratio taken far
        # apart measure the drift, and one slow run of a short phase (fresh
        # memory, a busy neighbour) moves a ratio of two.
        records = {n: _scale_records(n) for n in SCALE_SIZES}
        reports = {n: [] for n in SCALE_SIZES}
        for i in range(4):
            for n in sorted(SCALE_SIZES, reverse=i % 2 == 1):
                reports[n].append(engine.mine(records[n], SCALE_SIGMA, SCALE_GRID)[1])
        scan_ms = {n: min(r.first_scan_ms for r in rs) for n, rs in reports.items()}
        # Eight more rounds of the two scans the ratio reads, alone: a slow
        # stretch can cover all four rounds of a 200k scan, and the scans
        # are the cheap part of a round.
        for i in range(8):
            for n in sorted((100_000, 200_000), reverse=i % 2 == 0):
                t = time.perf_counter()
                scan_counts(records[n], SCALE_SIGMA, SCALE_GRID)
                scan_ms[n] = min(scan_ms[n], (time.perf_counter() - t) * 1000.0)
        build_ms = {n: min(r.tree_build_ms for r in rs) for n, rs in reports.items()}
        growth_ms = {n: min(r.growth_ms for r in rs) for n, rs in reports.items()}

        scan_ratio = scan_ms[200_000] / scan_ms[100_000]
        build_ratio = build_ms[200_000] / build_ms[100_000]
        slope = _slope(SCALE_SIZES, [growth_ms[n] for n in SCALE_SIZES])
        assert 1.5 <= scan_ratio <= 2.8, f"first scan ratio {scan_ratio:.2f}"
        assert 1.5 <= build_ratio <= 3.5, f"tree build ratio {build_ratio:.2f}"
        assert 1.0 < slope < 2.0, f"growth log-log slope {slope:.3f}"
    announce(capsys, "C4", what, started)


def test_c5_sigma_sweep(capsys):
    what = "raising sigma never adds patterns and shrinks growth time"
    started = time.perf_counter()
    with announce_failure(capsys, "C5", what):
        records = _scale_records(100_000)
        counts, times = [], []
        for sigma in (2, 4, 8, 16):
            _, report = engine.mine(records, sigma, SCALE_GRID)
            counts.append(report.pattern_count)
            times.append(report.growth_ms)

        for prev, cur in zip(counts, counts[1:]):
            assert cur <= prev, f"pattern counts not monotone: {counts}"

        inversions = [(prev, cur) for prev, cur in zip(times, times[1:])
                      if cur > prev]
        assert len(inversions) <= 1, f"growth times not monotone: {times}"
        for prev, cur in inversions:
            assert (cur - prev) / prev <= 0.10, \
                f"growth time inversion over 10%: {times}"
    announce(capsys, "C5", what, started)


def test_c6_structural_invariants(capsys):
    what = "structural invariants hold on all fuzzed instances"
    started = time.perf_counter()
    with announce_failure(capsys, "C6", what):
        for i, r in enumerate(fuzz_results()):
            tree = build_tree(r.records, r.sigma, r.grid)
            check_mass_conservation(tree, r.records, r.grid)
            check_header_consistency(tree, r.records, r.grid)
            check_prefix_order(tree)
            check_upward_closure(r.found, r.grid.height)
            check_subset_closure(r.found)
            check_no_duplicates(r.patterns)
            assert tree_equal(tree, build_tree(r.records, r.sigma, r.grid))
            if i % 10 == 0:
                stricter, _ = engine.mine(
                    r.records, r.sigma + 1, r.grid)
                high = patterns_to_dict(stricter)
                assert set(high) <= set(r.found)
                assert all(r.found[k] == v for k, v in high.items())
    announce(capsys, "C6", what, started)


def test_c7_corpus_statistics(capsys, tmp_path):
    what = "stats reports record and unique word counts"
    with announce_failure(capsys, "C7", what):
        corpus = tmp_path / "corpus.jsonl"
        gen = run_cli("gen", "--output", corpus, "--bbox", "0,0,4,4",
                      "--height", "2", "--records", "3000", "--vocab", "500",
                      "--seed", "11")
        assert gen.returncode == 0, gen.stderr

        distinct = set()
        instances = 0
        with open(corpus, encoding="utf-8") as fh:
            for line in fh:
                words = json.loads(line)["words"]
                distinct.update(words)
                instances += len(words)

        proc = run_cli("stats", "--input", corpus, "--bbox", "0,0,4,4")
        assert proc.returncode == 0, proc.stderr
        fields = summary_fields(proc.stdout)
        assert fields["records"] == "3000"
        assert fields["unique words"] == str(len(distinct))
        assert fields["word instances"] == str(instances)
        assert fields["outside bbox"] == "0"
        assert float(fields["mean words per record"]) == pytest.approx(
            instances / 3000, abs=0.005)
    announce(capsys, "C7", what)
