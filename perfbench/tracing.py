"""Span recorder that wraps crossmap's functions at their layer boundaries.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends. A layer's self time is its span's duration minus the time
its child spans cover. The wrappers are installed from the benchmark's own
files: every module attribute of the ``crossmap`` package that is bound to
a traced function is swapped for the wrapper, so calls through names that
a module imported from another (``from .forecast import ...``) are traced
too. A traced name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable

# (span name, defining module, attribute); the span name is the layer
# (package module) and the public function name
LAYERS = (
    ("core.read_series_csv", "crossmap.core", "read_series_csv"),
    ("core.skill_stats", "crossmap.core", "skill_stats"),
    ("embedding.embed", "crossmap.embedding", "embed"),
    ("embedding.nearest_rows", "crossmap.embedding", "nearest_rows"),
    ("forecast.pairwise_distances", "crossmap.forecast", "_pairwise_distances"),
    ("forecast.estimates_from_distances", "crossmap.forecast",
     "estimates_from_distances"),
    ("forecast.weight_rows", "crossmap.forecast", "weight_rows"),
    ("forecast.cross_estimates", "crossmap.forecast", "cross_estimates"),
    ("forecast.loo_skill", "crossmap.forecast", "loo_skill"),
    ("forecast.select_embedding_dimension", "crossmap.forecast",
     "select_embedding_dimension"),
    ("ccm.shared_embedding_dimension", "crossmap.ccm",
     "shared_embedding_dimension"),
    ("ccm.cross_map_skill", "crossmap.ccm", "cross_map_skill"),
    ("ccm.ccm_curve", "crossmap.ccm", "ccm_curve"),
    ("ccm.convergence_test", "crossmap.ccm", "convergence_test"),
    ("ccm.eccm_profile", "crossmap.ccm", "eccm_profile"),
    ("ccm.causal_summary", "crossmap.ccm", "causal_summary"),
    ("cli.curve_dict", "crossmap.cli", "curve_dict"),
    ("cli.profile_dict", "crossmap.cli", "profile_dict"),
    ("cli.network_dict", "crossmap.cli", "network_dict"),
)

ROOT_SPAN = "bench.iteration"
COUNTER_SPAN = "trace.counters"
# spans whose distance builds count towards builds_per_manifold, and the
# E scan, whose builds do not
CROSS_MAP_SPANS = ("ccm.ccm_curve", "ccm.cross_map_skill")
E_SCAN_SPAN = "forecast.select_embedding_dimension"
MIB = 2 ** 20


def _count_nearest(tracer: "Tracer", args, kwargs, result) -> None:
    dist, k = args[0], args[1]
    boundary = result[1][:, k - 1]
    # a row needs the tie fallback when more than k entries reach the
    # k-th distance (the same test nearest_rows makes)
    ties = (dist <= boundary[:, None]).sum(axis=1) > k
    tracer.add("embedding.nearest_rows.rows", dist.shape[0])
    tracer.add("embedding.nearest_rows.tie_rows", int(ties.sum()))


def _count_distances(tracer: "Tracer", args, kwargs, result) -> None:
    cells = args[0].shape[0] * args[1].shape[0]
    tracer.add("forecast.pairwise_distances.cells", cells)
    tracer.peak("forecast.pairwise_distances.max_matrix_mb", cells * 8 / MIB)
    if (any(tracer.active(name) for name in CROSS_MAP_SPANS)
            and not tracer.active(E_SCAN_SPAN)):
        tracer.add("forecast.pairwise_distances.cross_map_builds", 1)


def _note_manifold(tracer: "Tracer", args, kwargs, result) -> None:
    effect, config = args[1], args[2]
    tracer.manifolds.add((effect.name, effect.origin_index, len(effect),
                          config.e_dim, config.tau))


HOOKS: dict[str, Callable] = {
    "embedding.nearest_rows": _count_nearest,
    "forecast.pairwise_distances": _count_distances,
    "ccm.ccm_curve": _note_manifold,
    "ccm.cross_map_skill": _note_manifold,
}


class Tracer:
    """In-memory spans and counters for one traced iteration."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.manifolds: set[tuple] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def active(self, name: str) -> bool:
        return self._active.get(name, 0) > 0

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        self._active[name] = self._active.get(name, 0) + 1
        try:
            yield
        finally:
            self.spans[index][2] = self.clock()
            self._stack.pop()
            self._active[name] -= 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                # counters are computed outside the layer's own span, in a
                # span of their own, so no layer is charged for them
                with tracer.span(COUNTER_SPAN):
                    try:
                        hook(tracer, args, kwargs, result)
                    except (TypeError, ValueError, IndexError, AttributeError) as err:
                        tracer.absent.append(f"{name} counters: {err!r}")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every crossmap binding of each traced function for a wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "crossmap"
                                         or key.startswith("crossmap."))]
        swapped = []
        try:
            for name, module_name, attr in LAYERS:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            swapped.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(swapped):
                setattr(module, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out


MODULES = ("core", "embedding", "forecast", "ccm", "cli")

# per-layer metrics reported by a traced run: name -> (unit, better).
# Every time here is measured on every workload; times of functions that
# only some workloads call (ccm_curve, eccm_profile, the E scan, ...) are
# in the module totals and, per function, in the run's details.
PER_LAYER = {
    **{f"{module}.self_s": ("s", "lower") for module in MODULES},
    "embedding.nearest_rows.calls": ("count", "lower"),
    "embedding.nearest_rows.self_s": ("s", "lower"),
    "embedding.nearest_rows.rows": ("count", "lower"),
    "embedding.nearest_rows.tie_rows": ("count", "lower"),
    "embedding.embed.calls": ("count", "lower"),
    "forecast.pairwise_distances.calls": ("count", "lower"),
    "forecast.pairwise_distances.self_s": ("s", "lower"),
    "forecast.pairwise_distances.cells": ("cells-computed", "lower"),
    "forecast.pairwise_distances.max_matrix_mb": ("MiB-computed", "lower"),
    "forecast.pairwise_distances.builds_per_manifold": ("ratio", "lower"),
    "forecast.estimates_from_distances.self_s": ("s", "lower"),
    "forecast.weight_rows.self_s": ("s", "lower"),
    "core.skill_stats.calls": ("count", "higher"),
    "bench.cross_maps": ("count", "higher"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.layer_self_sum_s": ("s", "lower"),
    "trace.unwrapped_s": ("s", "lower"),
    "trace.counters_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, except ``bench.cross_maps``
    and ``trace_overhead_s``, which the worker adds from its own results.

    A function the workload never called reads 0; one missing from
    crossmap reads 0 and is named in ``tracer.absent``.
    """
    summary = tracer.summary()
    layers = {name for name, _, _ in LAYERS}
    out = {f"{module}.self_s": sum(row["self_s"] for name, row in summary.items()
                                   if name in layers and name.startswith(module + "."))
           for module in MODULES}
    for metric in PER_LAYER:
        if metric in out:
            continue
        name, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            out[metric] = summary.get(name, {}).get(field, 0)
        else:
            out[metric] = tracer.counters.get(metric, 0)
    builds = tracer.counters.get("forecast.pairwise_distances.cross_map_builds", 0)
    out["forecast.pairwise_distances.builds_per_manifold"] = (
        builds / len(tracer.manifolds) if tracer.manifolds else 0.0)
    root = summary.get(ROOT_SPAN, {"total_s": 0.0, "self_s": 0.0})
    out["trace.traced_wall_s"] = root["total_s"]
    out["trace.layer_self_sum_s"] = sum(out[f"{module}.self_s"] for module in MODULES)
    out["trace.unwrapped_s"] = root["self_s"]
    out["trace.counters_s"] = summary.get(COUNTER_SPAN, {}).get("total_s", 0.0)
    del out["bench.cross_maps"], out["trace_overhead_s"]
    return out
