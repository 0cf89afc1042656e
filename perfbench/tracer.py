"""Spans around temcgl's public functions, installed from outside the package.

Nothing in ``src/`` knows about tracing. During a traced run, ``install``
rebinds each target name in every ``temcgl`` module that holds it (the
package uses ``from .x import f``, so a function must be replaced where it
is *called*, not only where it is defined) and wraps methods on their class.
Spans are kept in memory as ``[id, name, parent_id, start, end, count]`` and
turned into per-layer metrics by ``layer_metrics``.

A target that no longer exists under its name is skipped and listed in
``Tracer.absent``; its metrics then read 0 and the benchmark reports them as
absent instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# (span name, names looked up in temcgl, counter name, count of one call).
# A dotted name is a method wrapped on its class; the counter is summed per
# timed run.
TARGETS = [
    ("graph.generate_sbm", ["generate_sbm"], None, None),
    ("graph.load_graph_files", ["load_graph_files"], None, None),
    ("graph.build_graph", ["build_graph"], "graph.nodes_built", lambda a, k, r: r.num_nodes),
    ("graph.induced_subgraph", ["induced_subgraph"], None, None),
    ("graph.normalize_adjacency", ["normalize_adjacency"], None, None),
    ("graph.spmm", ["NormalizedAdjacency.spmm"], None, None),
    ("graph.bfs_ball", ["bfs_ball"], None, None),
    ("propagation.compute_tes", ["compute_tes"], "propagation.rows_embedded",
     lambda a, k, r: r.values.shape[0]),
    ("coverage.singleton_coverage_table", ["singleton_coverage_table"], "coverage.candidates",
     lambda a, k, r: len(r)),
    ("coverage.coverage_max_sample", ["coverage_max_sample"], "coverage.selected",
     lambda a, k, r: len(r)),
    ("coverage.coverage_ratio", ["coverage_ratio"], None, None),
    ("buffer.update_tem", ["MemoryBuffer.update_tem"], None, None),
    ("buffer.footprint_bytes", ["MemoryBuffer.footprint_bytes"], "buffer.bytes_serialized",
     lambda a, k, r: int(r)),
    ("buffer.save_buffer", ["save_buffer"], None, None),
    ("buffer.load_buffer", ["load_buffer"], None, None),
    ("model.loss_and_grad", ["loss_and_grad"], "model.rows_trained",
     lambda a, k, r: len(_arg(a, k, 1, "x"))),
    ("model.optimizer_step", ["AdamOptimizer.step", "SgdOptimizer.step"], None, None),
    ("model.replay_batch", ["replay_batch"], None, None),
    ("model.save_model", ["save_model"], None, None),
    ("model.load_model", ["load_model"], None, None),
    ("harness.masked_accuracy", ["masked_accuracy"], None, None),
    ("harness.run_continual", ["run_continual"], "harness.tasks", lambda a, k, r: len(r.tasks)),
    ("config.load_config", ["load_config"], None, None),
    ("config.load_dataset", ["load_dataset"], None, None),
    ("config.write_manifest", ["write_manifest"], None, None),
    ("cli.main", ["main"], None, None),
]

# Spans the benchmark opens itself; only spans under RUN_ROOT feed the
# per-run sums.
RUN_ROOT = "bench.run"


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, parent, time.perf_counter(), 0.0, 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    # -- patching ---------------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count is not None:
                tracer.spans[sid][5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target found in the loaded ``temcgl`` package."""
        modules = _temcgl_modules()
        for span_name, lookups, _counter, count in TARGETS:
            found = False
            for lookup in lookups:
                owner, _, attr = lookup.rpartition(".")
                if owner:
                    found |= self._wrap_method(modules, owner, attr, span_name, count)
                else:
                    found |= self._wrap_function(modules, attr, span_name, count)
            if not found:
                self.absent.append(span_name)

    def _wrap_function(self, modules, attr, span_name, count) -> bool:
        originals = {
            id(obj): obj
            for mod in modules
            if callable(obj := vars(mod).get(attr)) and not isinstance(obj, type)
        }
        for original in originals.values():
            wrapped = self._wrap(original, span_name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        return bool(originals)

    def _wrap_method(self, modules, owner, attr, span_name, count) -> bool:
        classes = {
            id(cls): cls
            for mod in modules
            if isinstance(cls := vars(mod).get(owner), type) and attr in vars(cls)
        }
        for cls in classes.values():
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span_name, count))
        return bool(classes)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON array per line: id, name, parent id, start, end, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _temcgl_modules() -> list:
    import temcgl

    for info in pkgutil.iter_modules(temcgl.__path__):
        if info.name != "__main__":  # importing it would run the command line
            importlib.import_module(f"temcgl.{info.name}")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "temcgl" or name.startswith("temcgl."))
    ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from recorded spans.

    ``<span>.self_s`` and ``<span>.calls`` are sums over the spans inside
    ``RUN_ROOT`` spans, divided by the number of those runs; self time is a
    span's duration minus its direct children's (spans nest and run on one
    thread, so children never overlap). ``<span>.s`` is the median duration
    of one call anywhere in the trace, set-up and output checks included.
    Counters are summed per run like ``calls``.
    """
    children = defaultdict(float)
    for _sid, _name, parent, start, end, _count in spans:
        if parent >= 0:
            children[parent] += end - start

    # Which RUN_ROOT each span belongs to (-1 for set-up and checks).
    run_of: list[int] = []
    for sid, name, parent, *_ in spans:
        run_of.append(sid if name == RUN_ROOT else (run_of[parent] if parent >= 0 else -1))
    runs = max(1, sum(1 for s in spans if s[1] == RUN_ROOT))

    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    counters = defaultdict(float)
    counter_of = {name: counter for name, _l, counter, _c in TARGETS if counter}
    for sid, name, _parent, start, end, count in spans:
        durations[name].append(end - start)
        if run_of[sid] < 0 or name == RUN_ROOT:
            continue
        self_s[name] += end - start - children[sid]
        calls[name] += 1
        if name in counter_of:
            counters[counter_of[name]] += count

    out: dict[str, float] = {}
    for name, _lookups, _counter, _count in TARGETS:
        out[f"{name}.self_s"] = self_s[name] / runs
        out[f"{name}.calls"] = calls[name] / runs
        out[f"{name}.s"] = statistics.median(durations[name]) if durations[name] else 0.0
    for counter in counter_of.values():
        out[counter] = counters[counter] / runs
    return out
