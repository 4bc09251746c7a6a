"""Spans around gboost's public calls, recorded from the benchmark's side.

:class:`Tracer` swaps each traced function for a timing wrapper in every
loaded ``gboost`` module that holds a reference to it, so the CLI commands
run unchanged and still pass through the wrappers. Spans stay in memory:
``[name, start_ns, end_ns, parent_index]``, parent -1 for a root.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter_ns

# (defining module, attribute, span name). "Wfst.copy" is a method.
TRACED = [
    ("gboost.arpa", "parse_arpa", "arpa.parse_arpa"),
    ("gboost.graph", "build_g", "graph.build_g"),
    ("gboost.graph", "graph_score", "graph.graph_score"),
    ("gboost.fst", "write_text", "fst.write_text"),
    ("gboost.fst", "read_text", "fst.read_text"),
    ("gboost.fst", "diff", "fst.diff"),
    ("gboost.fst", "Wfst.copy", "fst.copy"),
    ("gboost.enhance", "enhance", "enhance.enhance"),
    ("gboost.evaluate", "run_ranking", "evaluate.run_ranking"),
    ("gboost.evaluate", "sweep", "evaluate.sweep"),
]

# Layers reported as total time in their spans, in seconds.
TIMED_LAYERS = ["arpa.parse_arpa", "graph.build_g", "fst.write_text",
                "fst.read_text", "fst.diff", "fst.copy", "enhance.enhance",
                "evaluate.run_ranking"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"enhance.arcs_added": 0, "enhance.arcs_raised": 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        call = self.call
        if name == "enhance.enhance":
            counts = self.counts

            def traced(*args, **kwargs):
                result = call(name, fn, *args, **kwargs)
                delta = result[1]
                counts["enhance.arcs_added"] += len(delta.added_arcs)
                counts["enhance.arcs_raised"] += len(delta.reweighted_arcs)
                return result
        else:
            def traced(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gboost" or n.startswith("gboost.")]
        for module_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] + [m for m in modules if getattr(m, attr, None) is original]
            for holder in dict.fromkeys(holders):
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_stats(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals, self times and call statistics of one traced chain."""
    spans = tracer.spans
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for name, start, end, parent in spans:
        duration = (end - start) / 1e9
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] -= duration

    stats = {f"{layer}.s": total.get(layer, 0.0) for layer in TIMED_LAYERS}
    stats["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith("cli."))
    stats["evaluate.run_ranking.self_s"] = self_time.get("evaluate.run_ranking", 0.0)

    scores = sorted((end - start) / 1e3 for name, start, end, _ in spans
                    if name == "graph.graph_score")
    stats["graph.graph_score.calls"] = len(scores)
    stats["graph.graph_score.p50_us"] = _percentile(scores, 0.50)
    stats["graph.graph_score.p99_us"] = _percentile(scores, 0.99)
    stats["graph.graph_score.self_s"] = self_time.get("graph.graph_score", 0.0)

    # One sweep cell runs from the end of the previous cell's ranking (or
    # the sweep's start) to the end of its own ranking.
    cells = []
    for index, (name, start, end, _) in enumerate(spans):
        if name != "evaluate.sweep":
            continue
        mark = start
        for child in spans[index + 1:]:
            if child[1] >= end:
                break
            if child[0] == "evaluate.run_ranking":
                cells.append((child[2] - mark) / 1e9)
                mark = child[2]
    stats["evaluate.cell.p50_s"] = statistics.median(cells) if cells else 0.0
    stats.update(tracer.counts)
    return stats


def span_records(tracer: Tracer) -> list[dict]:
    return [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in tracer.spans]
