"""The benchmark's traced run still finds every hook it reports on.

``perfbench/traced.py`` times the program by wrapping functions at the
module attributes their callers look them up through, and
``perfbench/run.py`` reads its per-layer metrics from those wrappers,
from the tracer's counts and from the mine summary. A renamed or
uncalled hook turns a metric into a placeholder instead of a number, so
this test runs the traced CLI on a tiny corpus and checks every source
that ``LAYER_METRICS`` names. Both lists are read from the perfbench
files themselves.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The result file of one traced ``mine`` run over a seeded corpus."""
    tmp = tmp_path_factory.mktemp("bench_hooks")
    rnd = random.Random(3)
    corpus = tmp / "input.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(400):
            words = rnd.sample(["w%d" % k for k in range(12)], rnd.randint(2, 5))
            # Half the records are free text, so the tokenizer runs too.
            rec = {"words": words} if i % 2 else {"text": " ".join(words)}
            rec.update(id=str(i), lon=rnd.uniform(-9.9, 9.9), lat=rnd.uniform(-4.9, 4.9))
            fh.write(json.dumps(rec) + "\n")
    result_path = tmp / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(result_path), "mine",
         "--input", str(corpus), "--output", str(tmp / "out.jsonl"),
         "--bbox=-10,-5,10,5", "--height", str(HEIGHT), "--sigma", SIGMAS,
         "--backend", "pure"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result_path.read_text(encoding="utf-8"))


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


def test_every_traced_count_is_recorded(perfbench_modules, traced):
    run, _ = perfbench_modules
    counts = _sources(run, ("counts",))
    assert "spatial_tree.nodes" in counts
    missing = sorted(counts - set(traced["counts"]))
    assert not missing, f"counts the traced run did not record: {missing}"
    assert traced["counts"]["spatial_tree.nodes"] > 0


def test_every_summary_value_is_a_finite_number(perfbench_modules, traced):
    run, checker = perfbench_modules
    summary = checker.parse_summary(traced["stdout"])
    for key in _sources(run, ("summary",)):
        # run.py reports a level the grid lacks as 0 patterns.
        if key.startswith("patterns level ") and int(key.rsplit(" ", 1)[1]) > HEIGHT:
            continue
        value = summary.get(key)
        assert isinstance(value, float) and math.isfinite(value), (key, value)
