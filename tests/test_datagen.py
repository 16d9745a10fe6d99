from collections import Counter

import pytest

from helpers import ancestor_at
from spatialfp.datagen import GenConfig, PlantedPattern, generate, word_name
from spatialfp.errors import ConfigInvalid
from spatialfp.grid import BoundingBox, Gid, Grid, encode

GRID = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), 3)


def test_generation_is_deterministic():
    cfg = GenConfig(n_records=300, vocab_size=100, seed=9)
    assert generate(cfg, GRID) == generate(cfg, GRID)


def test_different_seeds_differ():
    a = generate(GenConfig(n_records=50, vocab_size=100, seed=1), GRID)
    b = generate(GenConfig(n_records=50, vocab_size=100, seed=2), GRID)
    assert a != b


def test_records_stay_inside_the_box():
    records = generate(GenConfig(n_records=500, vocab_size=50, seed=3), GRID)
    assert len(records) == 500
    for rec in records:
        encode(rec.point, GRID)  # raises outside the box
        assert all(0 <= w < 50 for w in rec.words)
    assert len({rec.oid for rec in records}) == 500


def test_low_ids_are_more_frequent():
    records = generate(GenConfig(
        n_records=2000, vocab_size=1000, zipf_exponent=1.1, seed=4), GRID)
    counts = Counter(w for rec in records for w in rec.words)
    top = sum(counts[w] for w in range(10))
    bottom = sum(counts[w] for w in range(990, 1000))
    assert top > 10 * bottom


def test_planted_pattern_lands_in_its_cell():
    pattern = PlantedPattern((3, 5, 9), Gid(2, 0b0110), 40)
    cfg = GenConfig(n_records=400, vocab_size=50, words_per_record_mean=4.0,
                    planted=(pattern,), seed=6)
    records = generate(cfg, GRID)
    assert len(records) == 400
    hits = 0
    for rec in records:
        if set(pattern.words) <= rec.words:
            cell = ancestor_at(encode(rec.point, GRID), 2)
            if cell == pattern.gid:
                hits += 1
    assert hits >= 40


def test_two_planted_patterns_claim_disjoint_records():
    pats = (PlantedPattern((1,), Gid(1, 0b00), 30),
            PlantedPattern((2,), Gid(1, 0b11), 30))
    records = generate(GenConfig(
        n_records=60, vocab_size=10, words_per_record_mean=0.001,
        planted=pats, seed=7), GRID)
    ones = sum(1 for r in records if 1 in r.words)
    twos = sum(1 for r in records if 2 in r.words)
    assert ones == 30 and twos == 30


def test_zero_records():
    assert generate(GenConfig(n_records=0, vocab_size=5), GRID) == []


@pytest.mark.parametrize("cfg", [
    GenConfig(n_records=-1, vocab_size=5),
    GenConfig(n_records=5, vocab_size=0),
    GenConfig(n_records=5, vocab_size=5, words_per_record_mean=0.0),
    GenConfig(n_records=5, vocab_size=5, zipf_exponent=-0.5),
    GenConfig(n_records=5, vocab_size=5,
              planted=(PlantedPattern((), Gid(0, 0), 1),)),
    GenConfig(n_records=5, vocab_size=5,
              planted=(PlantedPattern((7,), Gid(0, 0), 1),)),
    GenConfig(n_records=5, vocab_size=5,
              planted=(PlantedPattern((1,), Gid(0, 0), -1),)),
    GenConfig(n_records=5, vocab_size=5,
              planted=(PlantedPattern((1,), Gid(4, 0), 1),)),
    GenConfig(n_records=5, vocab_size=5,
              planted=(PlantedPattern((1,), Gid(0, 0), 6),)),
])
def test_invalid_configs_are_rejected(cfg):
    with pytest.raises(ConfigInvalid):
        generate(cfg, GRID)


def test_word_name_is_fixed_width():
    assert word_name(42) == "w00042"
    assert word_name(0) == "w00000"
