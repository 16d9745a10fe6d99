"""End-to-end benchmark of ``spatialfp mine``, with an optional traced run.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload c4_words --seed 1 --seconds 30 --trace 0

or, for every workload in turn:

    for w in c4_words dense_growth text_deep; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

One client runs one ``python -m spatialfp mine --backend auto`` process
at a time against the working tree's ``src`` (a closed loop: file in,
file out), for about ``--seconds`` seconds and at least twice. Set-up
samples (a fresh interpreter importing the CLI) are taken in bursts
before the first mine run and after each one, so that they span the
whole window. Every output is checked against the generator's ground
truth and must be byte-identical across the runs of one seed. With ``--trace 0`` the last line reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from one extra
traced run (see ``traced.py``). The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checker
import corpora

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

SETUP_BURST = 4  # set-up samples before the first mine run and after each one
MIN_MINES = 2
CHILD_TIMEOUT_S = 150
SETUP_CODE = ("import spatialfp.cli, spatialfp.engine as e; "
              "e.resolve_backend('auto')")

# Per-layer metric -> (unit, how to read it from the traced result).
# Layer readers: ("total"|"self"|"calls", layer); counts come from the
# tracer, the mine summary or the benchmark itself.
LAYER_METRICS: dict[str, tuple[str, tuple]] = {
    "formats.parse_ms": ("ms", ("total", "formats.parse")),
    "formats.parse_calls": ("count", ("calls", "formats.parse")),
    "text.tokenize_ms": ("ms", ("total", "text.tokenize")),
    "text.tokenize_calls": ("count", ("calls", "text.tokenize")),
    "grid.encode_ms": ("ms", ("total", "grid.encode")),
    "grid.encode_calls": ("count", ("calls", "grid.encode")),
    "spatial_tree.scan_self_ms": ("ms", ("self", "spatial_tree.scan")),
    "spatial_tree.insert_ms": ("ms", ("total", "spatial_tree.insert")),
    "spatial_tree.insert_calls": ("count", ("calls", "spatial_tree.insert")),
    "engine.self_ms": ("ms", ("self", "engine")),
    "spatial_mining.mine_tree_self_ms": ("ms", ("self", "spatial_mining.mine_tree")),
    "fptree.cond_tree_ms": ("ms", ("total", "fptree.cond_tree")),
    "fptree.cond_trees": ("count", ("calls", "fptree.cond_tree")),
    "fptree.fp_growth_ms": ("ms", ("total", "fptree.fp_growth")),
    "fptree.fp_growth_calls": ("count", ("calls", "fptree.fp_growth")),
    "formats.write_ms": ("ms", ("total", "formats.write")),
    "formats.bytes_out": ("B", ("bench", "bytes_out")),
    "gc.collections": ("count", ("bench", "gc_collections")),
    "gc.pause_ms": ("ms", ("bench", "gc_pause_ms")),
    "spatial_tree.retained_words": ("count", ("summary", "retained words")),
    "spatial_tree.cell_entries": ("count", ("summary", "word-cell entries")),
    "spatial_tree.nodes": ("count", ("counts", "spatial_tree.nodes")),
    "engine.patterns_total": ("count", ("summary", "patterns total")),
    **{f"engine.patterns.L{k}": ("count", ("summary", f"patterns level {k}"))
       for k in range(10)},
    "engine.first_scan_ms": ("ms", ("summary", "first scan ms")),
    "engine.tree_build_ms": ("ms", ("summary", "tree build ms")),
    "engine.growth_ms": ("ms", ("summary", "growth ms")),
    "trace.overhead_pct": ("%", ("bench", "overhead_pct")),
}


class Child:
    """One finished child process: wall time, exit code, peak RSS, stdout."""

    def __init__(self, argv: list[str], env: dict, out_path: Path):
        with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child along
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = out_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def layer_metrics(result: dict, bench: dict, summary: dict) -> dict[str, dict]:
    """Every ``LAYER_METRICS`` entry; one this tree cannot measure (its
    function is gone, say) is marked ``"absent": true`` with value 0."""
    metrics = {}
    for name, (unit, (kind, key)) in LAYER_METRICS.items():
        if kind in ("total", "self", "calls"):
            st = result["layers"].get(key)
            value = None if st is None else {
                "calls": st[0], "total": st[1] * 1000.0, "self": st[2] * 1000.0}[kind]
        else:
            value = {"counts": result["counts"], "bench": bench, "summary": summary}[kind].get(key)
        metrics[name] = ({"value": value, "unit": unit} if value is not None
                         else {"value": 0, "unit": unit, "absent": True})
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the workload (tests only; metrics are not comparable)")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "spatialfp" / "cli.py").is_file():
        print(f"error: no spatialfp source tree at {SRC}", file=sys.stderr)
        return 2

    wl = corpora.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it


def run(args, wl: corpora.Workload, work: Path) -> int:
    data = work / "input.jsonl"
    corpus = corpora.make(args.workload, args.seed, str(data), args.scale)
    env = child_env(args.seed)

    setup_argv = [sys.executable, "-c", SETUP_CODE]
    Child(setup_argv, env, work / "setup.txt")  # warm-up: bytecode caches
    setups: list[float] = []

    def sample_setup() -> bool:
        for _ in range(SETUP_BURST):
            c = Child(setup_argv, env, work / "setup.txt")
            if c.code != 0:
                print(f"error: setup failed: {c.stderr.strip()}", file=sys.stderr)
                return False
            setups.append(c.wall_s)
        return True

    def mine(i: int) -> tuple[Child, Path]:
        out = work / f"out{i}.jsonl"
        argv = [sys.executable, "-m", "spatialfp", "mine", "--input", str(data),
                "--output", str(out), "--backend", "auto", *wl.mine_args()]
        return Child(argv, env, work / f"mine{i}.txt"), out

    runs: list[tuple[Child, Path]] = []
    start = time.perf_counter()
    if not sample_setup():
        return 1
    first = time.perf_counter() - start
    while True:
        runs.append(mine(len(runs)))
        if not sample_setup():
            return 1
        elapsed = time.perf_counter() - start
        typical = (elapsed - first) / len(runs)  # one mine run and one burst
        if len(runs) >= MIN_MINES and elapsed + typical / 2 > args.seconds:
            break  # the next run would end nearer past the window than inside it

    failures: list[str] = []
    reference: str | None = None
    good: list[Child] = []
    for i, (c, out) in enumerate(runs):
        if c.code != 0:
            failures.append(f"run {i}: exit {c.code}: {c.stderr.strip()[-300:]}")
            continue
        digest = sha256(out)
        if reference is None:
            problems = checker.check(corpus, wl, str(out), c.stdout)
            if problems:
                failures.append(f"run {i}: output check failed: " + "; ".join(problems))
                continue
            reference = digest
        elif digest != reference:
            failures.append(f"run {i}: output differs from run 0 of the same seed")
            continue
        good.append(c)

    attempted = len(runs)
    walls = [c.wall_s for c, _ in runs if c in good]
    wall_median = statistics.median(walls) if walls else 0.0
    backend = checker.parse_summary(good[0].stdout).get("backend") if good else None

    if args.trace:
        attempted += 1
        result_path = work / "trace.json"
        out = work / "traced.jsonl"
        argv = [sys.executable, str(HERE / "traced.py"), str(result_path), "mine",
                "--input", str(data), "--output", str(out), "--backend", "auto",
                *wl.mine_args()]
        c = Child(argv, env, work / "traced.txt")
        if c.code != 0 or not result_path.is_file():
            failures.append(f"traced run: exit {c.code}: {c.stderr.strip()[-300:]}")
            metrics = {}
        else:
            if reference is None or sha256(out) != reference:
                failures.append("traced run: output differs from the untraced output")
            result = json.loads(result_path.read_text(encoding="utf-8"))
            bench = {
                "bytes_out": out.stat().st_size,
                "gc_collections": result["gc"]["collections"],
                "gc_pause_ms": result["gc"]["pause_s"] * 1000.0,
                "overhead_pct": (c.wall_s / wall_median - 1.0) * 100.0 if walls else 0.0,
            }
            summary = checker.parse_summary(result["stdout"])
            for k in range(wl.height + 1, 10):  # a level the grid lacks holds no pattern
                summary.setdefault(f"patterns level {k}", 0)
            metrics = layer_metrics(result, bench, summary)
            print(f"traced run: {c.wall_s:.3f} s, overhead "
                  f"{bench['overhead_pct']:.1f}% over the untraced median")
            print("layer: calls, total ms, self ms")
            for layer, (calls, total, self_s) in sorted(result["layers"].items()):
                print(f"  {layer}: {calls} {total * 1000.0:.1f} {self_s * 1000.0:.1f}")
            for name, count in sorted(result["counts"].items()):
                print(f"  {name}: {count}")
            if result["absent"]:
                print("absent functions: " + ", ".join(result["absent"]))
            absent = [name for name, m in metrics.items() if m.get("absent")]
            if absent:
                print("absent metrics, reported as 0: " + ", ".join(absent))
    else:
        metrics = {
            "mine_wall_s": {"value": wall_median, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                c.peak_rss_mb for c in good) if good else 0.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    failed = len(failures)
    for f in failures:
        print("FAILED " + f)
    print(f"workload {args.workload} seed {args.seed}: backend {backend}, "
          f"{attempted} mine runs, {failed} failed, error_rate {failed / attempted:.4f} ratio")
    print("mine wall s per run: " + " ".join(f"{w:.3f}" for w in walls))
    print("mine cpu s per run: " + " ".join(f"{c.cpu_s:.3f}" for c in good))
    print("setup s per sample: " + " ".join(f"{s:.3f}" for s in setups))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
