"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import corpora

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _mine(data: Path, out: Path, wl: corpora.Workload) -> str:
    argv = [sys.executable, "-m", "spatialfp", "mine", "--input", str(data),
            "--output", str(out), *wl.mine_args()]
    done = subprocess.run(argv, capture_output=True, text=True, env=ENV, check=True)
    return done.stdout


@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_tiny_workload_reports_every_metric(workload):
    assert {w["name"] for w in SPEC["workloads"]} == set(corpora.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench(workload, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 2 + trace
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert all(set(v) <= {"value", "unit", "absent"} for v in result["metrics"].values())
        if trace == 0:
            assert "error_rate 0.0000 ratio" in done.stdout
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("c4_words", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_corpus_matches_spatialfp_gen(tmp_path):
    wl = corpora.WORKLOADS["c4_words"]
    theirs, ours = tmp_path / "gen.jsonl", tmp_path / "ours.jsonl"
    subprocess.run([sys.executable, "-m", "spatialfp", "gen", "--output", str(theirs),
                    "--bbox=-10,-5,10,5", "--height", "5", "--records", "100000",
                    "--vocab", "50000", "--zipf", "0.9", "--words-mean", "5",
                    "--seed", "17"], env=ENV, check=True, capture_output=True)
    corpus = corpora.make("c4_words", 17, str(ours))
    assert theirs.read_bytes() == ours.read_bytes()

    out = tmp_path / "patterns.jsonl"
    stdout = _mine(ours, out, wl)
    assert checker.check(corpus, wl, str(out), stdout) == []
    summary = checker.parse_summary(stdout)
    assert summary["retained words"] == 6725
    assert summary["word-cell entries"] == 260_064
    assert summary["patterns total"] == 40_084


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mined")
    wl = corpora.WORKLOADS["dense_growth"]
    corpus = corpora.make("dense_growth", 3, str(tmp / "in.jsonl"), scale=0.05)
    out = tmp / "out.jsonl"
    _mine(tmp / "in.jsonl", out, wl)
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    return corpus, wl, lines, tmp


def _damaged(mined, pick, action) -> list[str]:
    corpus, wl, lines, tmp = mined
    pats = [json.loads(line) for line in lines]
    i = pick(pats)
    if action == "bump":
        pats[i]["count"] += 1
        lines = lines[:i] + [json.dumps(pats[i], ensure_ascii=False) + "\n"] + lines[i + 1:]
    elif action == "drop":
        lines = lines[:i] + lines[i + 1:]
    else:  # drop every pattern of more than two words
        lines = [line for line, p in zip(lines, pats) if len(p["words"]) < 3]
    path = tmp / "damaged.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return checker.check(corpus, wl, str(path))


def _of_size(k):
    return lambda pats: next(i for i, p in enumerate(pats) if len(p["words"]) == k)


def _with_superset(pats):
    cells = {}
    for p in pats:
        cells.setdefault(p["gid"], []).append(set(p["words"]))
    return next(i for i, p in enumerate(pats) if len(p["words"]) == 3
                and any(len(q) == 4 and set(p["words"]) < q for q in cells[p["gid"]]))


def _maximal(pats):
    """A three-word pattern with no reported superset in its cell."""
    cells = {}
    for p in pats:
        cells.setdefault(p["gid"], []).append(set(p["words"]))
    return next(i for i, p in enumerate(pats) if len(p["words"]) == 3
                and not any(set(p["words"]) < q for q in cells[p["gid"]]))


def test_checker_accepts_the_real_output(mined):
    corpus, wl, lines, tmp = mined
    assert sum(len(json.loads(line)["words"]) > 3 for line in lines) > 0
    assert checker.check(corpus, wl, str(tmp / "out.jsonl")) == []


@pytest.mark.parametrize("action, pick", [
    ("bump", _of_size(1)), ("bump", _of_size(2)), ("bump", _of_size(3)),
    ("drop", _of_size(1)), ("drop", _of_size(2)), ("drop", _with_superset),
    ("drop", _maximal), ("drop_long", _of_size(3)),
])
def test_checker_flags_damaged_output(mined, action, pick):
    assert _damaged(mined, pick, action) != []


def test_leaf_codes_clamp_the_maximum_edges():
    wl = corpora.WORKLOADS["text_deep"]
    lon = np.array([wl.bbox[0], wl.bbox[2], wl.bbox[2] + 1e-9])
    lat = np.array([wl.bbox[1], wl.bbox[3], wl.bbox[3]])
    inside, leaf = checker.leaf_codes(lon, lat, wl)
    assert inside.tolist() == [True, True, False]
    assert leaf.tolist() == [0, (1 << 2 * wl.height) - 1, -1]


def test_layer_missing_from_the_trace_is_marked_absent():
    import run
    result = {"layers": {"formats.parse": [3, 0.5, 0.25]}, "counts": {}}
    metrics = run.layer_metrics(result, {}, {})
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["formats.parse_ms"] == {"value": 500.0, "unit": "ms"}
    assert metrics["formats.parse_calls"] == {"value": 3, "unit": "count"}
    assert metrics["grid.encode_ms"] == {"value": 0, "unit": "ms", "absent": True}
    assert metrics["engine.patterns_total"]["absent"] is True
