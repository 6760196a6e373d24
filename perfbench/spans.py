"""Call spans around the public functions of each rcforecast layer.

The wrappers live here, outside the library. ``pipeline.py`` and ``cli.py``
bind names with ``from .x import y``, so a wrapper replaces the function in
every loaded ``rcforecast`` module namespace that holds it, and a method on
its class. A listed target that no longer exists, or whose counters no
longer fit its arguments or result, is reported as absent instead of
failing the run, so the list survives refactors of the library.

Spans are kept in memory and written once, by ``Tracer.write``. The program
is single-threaded, so one stack suffices: a span's parent is the innermost
span open when it starts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module under rcforecast, attribute path in that module)
TARGETS = [
    ("corpus.load_corpus", "corpus", "load_corpus"),
    ("corpus.ShareTable", "corpus", "ShareTable.__init__"),
    ("citegraph.build_graph", "citegraph", "build_graph"),
    ("cluster.leiden", "cluster", "leiden"),
    ("cluster.save_partition", "cluster", "save_partition"),
    ("cluster.load_partition", "cluster", "load_partition"),
    ("assign.assign_new_papers", "assign", "assign_new_papers"),
    ("assign.bm25_best_rc", "assign", "bm25_best_rc"),
    ("assign.RcDocumentStats.from_partition", "assign", "RcDocumentStats.from_partition"),
    ("indicators.IndicatorEngine", "indicators", "IndicatorEngine.__init__"),
    ("indicators.rows", "indicators", "IndicatorEngine.rows"),
    ("indicators.transform_and_standardize", "indicators", "transform_and_standardize"),
    ("regression.stepwise_select", "regression", "stepwise_select"),
    ("regression.fit_probit", "regression", "fit_probit"),
    ("forecast.build_forecasts", "forecast", "build_forecasts"),
    ("evaluate.evaluate_slices", "evaluate", "evaluate_slices"),
    ("evaluate.lifecycle_report", "evaluate", "lifecycle_report"),
    ("manifest.write_manifest", "manifest", "write_manifest"),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline"),
    ("pipeline.build_model", "pipeline", "build_model"),
    ("pipeline.extend_model", "pipeline", "extend_model"),
    ("pipeline.indicator_table", "pipeline", "indicator_table"),
    ("pipeline.fit_composite", "pipeline", "fit_composite"),
    ("pipeline.forecast_year", "pipeline", "forecast_year"),
    ("cli.run", "cli", "run"),
]


def _partition_key(partition):
    """A cheap content key: the sweep loads the same partition once per command."""
    return (len(partition.assignment), partition.model_year, partition.extended_through,
            partition.rc_count, partition.quality)


class Tracer:
    """Records (id, name, start, end, parent id) per wrapped call, plus counters
    taken from the wrapped calls' arguments and results."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []          # [id, name, start]
        self.counters: dict[str, float] = defaultdict(float)
        self.passes: set = set()              # distinct (partition, fy) indicator passes
        self.extensions: list[tuple] = []     # (corpus, base partition, extended partition)
        self.absent: list[str] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module, path in TARGETS:
            try:
                mod = importlib.import_module(f"rcforecast.{module}")
                owner = mod
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, raw))
            else:
                wrapper = self._wrap(name, raw)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("rcforecast"):
                        for key, value in list(vars(loaded).items()):
                            if value is raw:
                                setattr(loaded, key, wrapper)

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            stack.append([span_id, name, clock()])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, _, start = stack.pop()
                spans.append((span_id, name, start, end, parent))
            if after is not None:
                try:
                    after(result, *args, **kwargs)
                except Exception:   # a changed signature or result type
                    if f"{name} counters" not in self.absent:
                        self.absent.append(f"{name} counters")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # --- counters taken at the boundaries --------------------------------------

    def _after_citegraph_build_graph(self, graph, *args, **kwargs):
        self.counters["citegraph.nodes"] += graph.n_nodes
        self.counters["citegraph.edges"] += graph.n_edges

    def _after_cluster_leiden(self, partition, *args, **kwargs):
        self.counters["cluster.rc_count"] = partition.rc_count
        self.counters["cluster.quality"] = partition.quality

    def _after_assign_assign_new_papers(self, result, base, corpus, *args, **kwargs):
        extended, report = result
        self.counters["assign.by_references"] += report.by_references
        self.counters["assign.by_bm25"] += report.by_bm25
        self.counters["assign.unassigned"] += len(report.unassigned)
        self.extensions.append((corpus, base, extended))

    def _after_indicators_rows(self, rows, engine, fy, *args, **kwargs):
        self.counters["indicators.rows_out"] += len(rows)
        self.passes.add((_partition_key(engine.partition), fy))

    def _after_forecast_build_forecasts(self, records, *args, **kwargs):
        self.counters["forecast.records"] += len(records)

    def _after_manifest_write_manifest(self, _, path, command, arguments, inputs=None,
                                       *args, **kwargs):
        for p in (inputs or {}).values():
            if p is not None and Path(p).exists():
                self.counters["manifest.bytes_hashed"] += Path(p).stat().st_size

    # --- aggregation ------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per span name and per layer: calls, total seconds and self seconds,
        then the boundary counters and the ratios built from them.

        Total time of a name or layer counts only its outermost spans, so
        nested calls are not counted twice; self time subtracts the time the
        span's direct children cover.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        def inside(span, key) -> bool:
            parent = span[4]
            while parent is not None:
                if key(by_id[parent]) == key(span):
                    return True
                parent = by_id[parent][4]
            return False

        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            span_id, name, start, end, _ = span
            layer = name.split(".", 1)[0]
            self_s = (end - start) - child_time[span_id]
            for prefix, key in ((name, lambda s: s[1]),
                                (f"layer.{layer}", lambda s: s[1].split(".", 1)[0])):
                out[f"{prefix}.calls"] += 1
                out[f"{prefix}.self_s"] += self_s
                if not inside(span, key):
                    out[f"{prefix}.s"] += end - start
        out.update(self.counters)
        if out["assign.bm25_best_rc.calls"]:
            out["assign.bm25_hit_ratio"] = out["assign.by_bm25"] / out["assign.bm25_best_rc.calls"]
        if out["indicators.rows.calls"]:
            out["indicators.pass_reuse_ratio"] = len(self.passes) / out["indicators.rows.calls"]
        out["trace.absent"] = len(self.absent)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
