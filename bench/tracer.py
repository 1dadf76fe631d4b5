"""Spans and counters at the boundaries between tcores modules, recorded from
outside the library.

``Tracer.install`` wraps every public function of each layer (a module of
``tcores``) and rebinds the wrapper wherever the library holds the function:
module attributes and names imported with ``from ... import``.  Only the
outermost call into a layer opens a span; calls nested inside the same layer
only bump counters, which keeps the cost low where calls are dense (abacus
does millions per verify run).  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from functools import update_wrapper

from workloads import SUITES

LAYERS = ("cli", "counting", "distribution", "sampling", "hookstats",
          "partitions", "abacus", "corequotient", "verify")


# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "counting.calls": "count", "counting.misses": "count",
    "counting.hit_ratio": "ratio", "counting.busy_s": "s",
    "counting.terms_built": "count",
    "distribution.calls": "count", "distribution.self_s": "s",
    "distribution.support_points": "count",
    "sampling.build_calls": "count", "sampling.build_s": "s",
    "sampling.table_cells": "count", "sampling.draws": "count",
    "sampling.draw_s": "s",
    "hookstats.calls": "count", "hookstats.self_s": "s",
    "partitions.enumerated": "count", "partitions.busy_s": "s",
    "abacus.calls": "count", "abacus.busy_s": "s",
    "corequotient.calls": "count", "corequotient.self_s": "s",
    "verify.self_s": "s",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "trace.overhead_ratio": "ratio",
}


def _public_functions(module, layer: str):
    for name, obj in vars(module).items():
        if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        # the suite registry holds the check functions directly and run_suite
        # tests one of them by identity, so they stay unwrapped
        if layer == "verify" and name.startswith("check_"):
            continue
        yield name, obj


class Tracer:
    def __init__(self) -> None:
        # span: [layer, label, start, end, parent index, request, child time]
        self.spans: list[list] = []
        self.request = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._active = dict.fromkeys(LAYERS, False)
        self._stack: list[list] = []

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind them in every
        loaded tcores module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tcores" or name.startswith("tcores."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tcores.{layer}"]
            for name, fn in _public_functions(module, layer):
                wrappers[id(fn)] = self._wrap(layer, fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str, label: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [layer, label, 0.0, 0.0, parent, self.request, 0.0]
        self._stack.append([len(self.spans), span])
        self.spans.append(span)
        self._active[layer] = True
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] = False
        if self._stack:
            self._stack[-1][1][6] += span[3] - span[2]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return update_wrapper(self._wrap_generator(layer, fn), fn)
        tracer, name = self, fn.__name__
        cache_info = getattr(fn, "cache_info", None)
        after = self._after_hook(layer, name)
        per_suite = (layer, name) == ("verify", "run_suite")

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            misses = cache_info().misses if cache_info else 0
            if tracer._active[layer]:
                result = fn(*args, **kwargs)
            else:
                label = f"{name}:{args[0] if args else kwargs['name']}" if per_suite else name
                span = tracer._open(layer, label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
            missed = cache_info is not None and cache_info().misses > misses
            if cache_info:
                tracer.counts[f"{layer}.misses" if missed else f"{layer}.hits"] += 1
            if after:
                after(result, missed)
            return result

        return update_wrapper(wrapper, fn)

    def _wrap_generator(self, layer: str, fn):
        tracer, name = self, fn.__name__

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            items = fn(*args, **kwargs)
            while True:
                span = None if tracer._active[layer] else tracer._open(layer, name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        tracer._close(span)
                tracer.counts[f"{layer}.enumerated"] += 1
                yield item

        return wrapper

    def _after_hook(self, layer: str, name: str):
        counts = self.counts
        if layer == "counting":
            def after(table, missed):
                if missed:
                    counts["counting.terms_built"] += len(table)
        elif (layer, name) == ("distribution", "core_size_pmf"):
            def after(pmf, missed):
                counts["distribution.support_points"] += len(pmf.masses)
        elif (layer, name) == ("sampling", "build_sampler"):
            def after(table, missed):
                counts["sampling.build_calls"] += 1
                if missed:
                    counts["sampling.table_cells"] += sum(
                        len(row) for row in getattr(table, "rows", ()))
        elif (layer, name) == ("sampling", "unrank_partition"):
            def after(shape, missed):
                counts["sampling.draws"] += 1
        else:
            after = None
        return after

    # -- results -------------------------------------------------------------

    def metrics(self, out_bytes: int) -> dict[str, float]:
        """Per-layer totals over everything traced so far."""
        busy, self_time = defaultdict(float), defaultdict(float)
        by_label = defaultdict(float)
        for layer, label, start, end, _, _, child in self.spans:
            busy[layer] += end - start
            self_time[layer] += end - start - child
            by_label[layer, label] += end - start
        build_s = by_label["sampling", "build_sampler"]
        lookups = self.counts["counting.hits"] + self.counts["counting.misses"]
        values = {
            "cli.self_s": self_time["cli"],
            "cli.out_bytes": out_bytes,
            "counting.calls": self.calls["counting"],
            "counting.misses": self.counts["counting.misses"],
            "counting.hit_ratio": self.counts["counting.hits"] / lookups if lookups else 0.0,
            "counting.busy_s": busy["counting"],
            "counting.terms_built": self.counts["counting.terms_built"],
            "distribution.calls": self.calls["distribution"],
            "distribution.self_s": self_time["distribution"],
            "distribution.support_points": self.counts["distribution.support_points"],
            "sampling.build_calls": self.counts["sampling.build_calls"],
            "sampling.build_s": build_s,
            "sampling.table_cells": self.counts["sampling.table_cells"],
            "sampling.draws": self.counts["sampling.draws"],
            "sampling.draw_s": busy["sampling"] - build_s,
            "hookstats.calls": self.calls["hookstats"],
            "hookstats.self_s": self_time["hookstats"],
            "partitions.enumerated": self.counts["partitions.enumerated"],
            "partitions.busy_s": busy["partitions"],
            "abacus.calls": self.calls["abacus"],
            "abacus.busy_s": busy["abacus"],
            "corequotient.calls": self.calls["corequotient"],
            "corequotient.self_s": self_time["corequotient"],
            "verify.self_s": self_time["verify"],
        }
        for suite in SUITES:
            values[f"verify.{suite}_s"] = by_label["verify", f"run_suite:{suite}"]
        return values

    def write(self, path) -> None:
        """All spans as gzipped JSON lines:
        [layer, label, start, end, parent index, request]."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span[:6]) + "\n")


def best_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """The lowest reading of each metric over passes; counts are the same in
    every pass, times are lowest when nothing else loads the machine."""
    return {name: min(p[name] for p in passes) for name in passes[0]}
