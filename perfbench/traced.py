"""Run ``spatialfp`` in-process with its layer functions wrapped by timers.

Usage: ``python traced.py RESULT.json mine --input ... --output ...``
with ``src`` on ``PYTHONPATH``. Each wrapped function is replaced at the
module attribute its caller looks it up through, so the program itself
is unchanged. Calls are aggregated per layer as a count plus summed
time; self time is a call's duration minus the time of wrapped calls
made inside it. A function a later version no longer has is listed as
absent. The result file holds the layer table, collector pauses, the
mine summary and the exit code.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import sys
import time

# (module, attribute looked up by the caller, layer name). A layer may be
# reached through several modules, e.g. encode from both passes.
WRAPPED = (
    ("formats", "parse_record_line", "formats.parse"),
    ("formats", "tokenize", "text.tokenize"),
    ("spatial_tree", "encode", "grid.encode"),
    ("engine", "encode", "grid.encode"),
    ("engine", "scan_counts", "spatial_tree.scan"),
    ("engine", "insert_record", "spatial_tree.insert"),
    ("engine", "mine_tree", "spatial_mining.mine_tree"),
    ("spatial_mining", "tree_from_weighted_paths", "fptree.cond_tree"),
    ("spatial_mining", "fp_growth", "fptree.fp_growth"),
    ("engine", "mine", "engine"),
    ("cli", "write_patterns", "formats.write"),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, total s, self s]
        self.stack: list[list[float]] = []  # child time of each open call
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._gc_start = 0.0

    def wrap(self, layer: str, fn):
        st = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return timed

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause += time.perf_counter() - self._gc_start

    def install(self) -> None:
        for mod_name, attr, layer in WRAPPED:
            try:
                mod = importlib.import_module("spatialfp." + mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            timed = self.wrap(layer, fn)
            if attr == "mine_tree":
                timed = self._count_nodes(timed)
            setattr(mod, attr, timed)
        engine = importlib.import_module("spatialfp.engine")
        if getattr(engine, "FastMiner", None) is not None:
            engine.FastMiner = self._fast_miner(engine.FastMiner)
        gc.callbacks.append(self.on_gc)

    def _count_nodes(self, timed):
        def counted(tree, *args, **kwargs):
            try:
                self.counts["spatial_tree.nodes"] = sum(
                    len(tree.nodes_of(w)) for w in tree.words.order)
            except AttributeError:
                self.absent.append("spatial_tree.nodes")
            return timed(tree, *args, **kwargs)
        return counted

    def _fast_miner(self, cls):
        tracer = self
        insert = self.wrap("speedups.insert", lambda m, *a: m.insert(*a))
        mine = self.wrap("speedups.mine", lambda m, *a: m.mine(*a))

        class TracedMiner:
            def __init__(self, *args):
                self._m = cls(*args)

            def insert(self, *args):
                return insert(self._m, *args)

            def finalize(self):
                return self._m.finalize()

            def mine(self, *args):
                out = mine(self._m, *args)
                tracer.counts["speedups.nodes"] = int(self._m.node_count)
                return out

        return TracedMiner


def main(argv: list[str]) -> int:
    result_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from spatialfp import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_argv)
    gc.callbacks.remove(tracer.on_gc)
    result = {
        "exit": code,
        "layers": tracer.stats,
        "counts": tracer.counts,
        "absent": tracer.absent,
        "gc": {"collections": tracer.gc_collections, "pause_s": tracer.gc_pause},
        "stdout": out.getvalue(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
