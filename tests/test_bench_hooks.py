"""The benchmark's traced run still finds every hook it reports on.

``perfbench/traced.py`` times the program by wrapping functions at the
module attributes their callers look them up through, and
``perfbench/run.py`` reads its per-layer metrics from those wrappers,
from the tracer's counts and from the mine summary. A renamed or
uncalled hook turns a metric into a placeholder instead of a number, so
this test runs the traced CLI on a tiny corpus and checks every source
that ``LAYER_METRICS`` names. Both lists are read from the perfbench
files themselves. It also runs ``run.py``'s set-up probe and its
``mine`` command line as ``run.py`` spells them, so that a change to the
CLI that would break the benchmark fails here first.
"""

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import build_tree
from spatialfp.formats import FileSource
from spatialfp.grid import BoundingBox, Grid
from spatialfp.text import Vocabulary

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
HEIGHT = 2
SIGMAS = "4,3,2"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checker
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, checker


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A seeded 400-record corpus inside the box of the ``traced`` run,
    with a blank line after every 50th record."""
    path = tmp_path_factory.mktemp("bench_hooks") / "input.jsonl"
    rnd = random.Random(3)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(400):
            words = rnd.sample(["w%d" % k for k in range(12)], rnd.randint(2, 5))
            if i % 40 == 7:  # a word seen once: the record keeps no word
                words = ["once%d" % i]
            # Half the records are free text, so the tokenizer runs too.
            rec = {"words": words} if i % 2 else {"text": " ".join(words)}
            rec.update(id=str(i), lon=rnd.uniform(-9.9, 9.9), lat=rnd.uniform(-4.9, 4.9))
            fh.write(json.dumps(rec) + "\n" + ("\n" if i % 50 == 0 else ""))
    return path


@pytest.fixture(scope="module")
def traced(corpus):
    """The result file of one traced ``mine`` run over ``corpus``."""
    result_path = corpus.parent / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(result_path), "mine",
         "--input", str(corpus), "--output", str(corpus.parent / "out.jsonl"),
         "--bbox=-10,-5,10,5", "--height", str(HEIGHT), "--sigma", SIGMAS,
         "--backend", "pure"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result_path.read_text(encoding="utf-8"))


def test_benchmark_commands_still_run(perfbench_modules, corpus):
    """The set-up probe and the mine command line of ``run.py`` work as
    it spells them, on every workload's flags."""
    run, checker = perfbench_modules
    env = _env()
    setup = subprocess.run([sys.executable, "-c", run.SETUP_CODE],
                           capture_output=True, text=True, env=env, cwd=ROOT,
                           timeout=60)
    assert setup.returncode == 0, setup.stderr
    for name, wl in sorted(run.corpora.WORKLOADS.items()):
        proc = subprocess.run(
            [sys.executable, "-m", "spatialfp", "mine", "--input", str(corpus),
             "--output", str(corpus.parent / f"{name}.jsonl"),
             "--backend", "auto", *wl.mine_args()],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        assert checker.parse_summary(proc.stdout).get("backend") == "pure", name


def _sources(run, kinds):
    return {key for _, (kind, key) in run.LAYER_METRICS.values() if kind in kinds}


def test_every_timed_layer_is_called(perfbench_modules, traced):
    run, _ = perfbench_modules
    layers = _sources(run, ("total", "self", "calls"))
    assert layers
    # The tracer lists a layer once it wraps its function; calls count entries.
    missing = sorted(layer for layer in layers
                     if traced["layers"].get(layer, [0])[0] < 1)
    assert not missing, f"layers the traced run never entered: {missing}"


def test_layer_call_counts_match_the_corpus(traced, corpus):
    """Each per-record layer is entered once per record it serves, so a
    loop that stops calling one cannot leave its layer reading zero.
    Pass two is one call per run, and the tree it builds holds each
    record that keeps a word exactly once under the root."""
    lines = [line for line in corpus.read_text(encoding="utf-8").splitlines() if line.strip()]
    records = [json.loads(line) for line in lines]
    in_box = [r for r in records if -10 <= r["lon"] <= 10 and -5 <= r["lat"] <= 5]
    wordsets = [set(r["words"]) if "words" in r else set(r["text"].split()) for r in in_box]
    counts = Counter(w for ws in wordsets for w in ws)
    kept = min(int(s) for s in SIGMAS.split(","))
    calls = {layer: st[0] for layer, st in traced["layers"].items()}
    assert calls["formats.parse"] == len(lines)
    assert calls["text.tokenize"] == sum("words" not in r for r in records)
    assert calls["grid.encode"] == len(in_box)
    assert calls["spatial_tree.insert"] == 1
    tree = build_tree(FileSource(str(corpus), Vocabulary()), kept,
                      Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), HEIGHT))
    through_root_children = sum(count for node, count in zip(tree.head_node, tree.head_count)
                                if tree.parent_of[node] == 0)
    assert through_root_children == sum(
        any(counts[w] >= kept for w in ws) for ws in wordsets) < len(in_box)


def test_every_traced_count_is_recorded(perfbench_modules, traced):
    run, _ = perfbench_modules
    counts = _sources(run, ("counts",))
    assert "spatial_tree.nodes" in counts
    missing = sorted(counts - set(traced["counts"]))
    assert not missing, f"counts the traced run did not record: {missing}"
    assert traced["counts"]["spatial_tree.nodes"] > 0


def test_traced_node_count_equals_the_tree_size(traced, corpus):
    """The tracer counts nodes through ``nodes_of``; the sum over the
    words must be every node of the same tree but the root."""
    grid = Grid(BoundingBox(-10.0, -5.0, 10.0, 5.0), HEIGHT)
    sigma = min(int(s) for s in SIGMAS.split(","))
    tree = build_tree(FileSource(str(corpus), Vocabulary()), sigma, grid)
    assert traced["counts"]["spatial_tree.nodes"] == len(tree.rank_of) - 1


def test_every_summary_value_is_a_finite_number(perfbench_modules, traced):
    run, checker = perfbench_modules
    summary = checker.parse_summary(traced["stdout"])
    for key in _sources(run, ("summary",)):
        # run.py reports a level the grid lacks as 0 patterns.
        if key.startswith("patterns level ") and int(key.rsplit(" ", 1)[1]) > HEIGHT:
            continue
        value = summary.get(key)
        assert isinstance(value, float) and math.isfinite(value), (key, value)
