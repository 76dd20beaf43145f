"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps every function that ``moraldrift.__all__``
exports, at each module-level binding inside the package (so the
``fit_tier`` that ``diachronic`` imports is wrapped too). Cross-layer
calls therefore nest, and a layer's self time is its span time minus
the time of its child spans. Spans stay in memory until the caller
writes them out.

A span is ``(name, start, end, parent, counts)``: ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span or
-1, ``counts`` a dict of work counts read from the call's arguments and
result.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

MODEL_KINDS = ("centroid", "naive_bayes", "knn", "kde")


def _rows(queries) -> int:
    values = getattr(queries, "values", queries)
    shape = getattr(values, "shape", None)
    if shape is None:
        return len(values)
    return 1 if len(shape) == 1 else int(shape[0])


# Work counts per wrapped function: (args, kwargs, result) -> dict.
COUNTERS = {
    "load_embedding_space": lambda a, k, r: {"values": int(r.matrix.size)},
    "load_diachronic": lambda a, k, r: {
        "bytes": sum(int(s.matrix.nbytes) for s in r.spaces)},
    "save_embedding_space": lambda a, k, r: {"values": int(a[0].matrix.size)},
    "load_norms": lambda a, k, r: {"rows": len(r)},
    "seed_vectors": lambda a, k, r: {"rows": sum(m.shape[0] for m in r.values())},
    "posterior_batch": lambda a, k, r: {"rows": _rows(a[1]), "kind": a[0].spec.kind},
    "loo_accuracy": lambda a, k, r: {"folds": r.n},
    "prediction_matrix": lambda a, k, r: {"cells": int(r.values.size)},
    "permutation_control": lambda a, k, r: {"shuffles": r.n_shuffles},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code the caller runs itself."""
        idx = self._open()
        try:
            yield
        finally:
            self._close(idx, name, None)

    def _open(self) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([None, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, counts) -> None:
        record = self.spans[idx]
        record[0], record[2], record[4] = name, time.perf_counter(), counts
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                tracer._close(idx, name, counts)

        return wrapper

    def install(self) -> None:
        """Wrap every exported function at every binding in the package."""
        import moraldrift

        modules = [m for n, m in sys.modules.items()
                   if n == "moraldrift" or n.startswith("moraldrift.")]
        wrappers = {}
        for export in moraldrift.__all__:
            fn = getattr(moraldrift, export)
            if not inspect.isfunction(fn):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def export(self) -> list:
        return [tuple(s) for s in self.spans]


def _durations(spans, names) -> tuple[int, float]:
    """Count and total time of spans named in ``names``, outermost only."""
    names = set(names)
    count, total = 0, 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p >= 0:
            continue
        count += 1
        total += end - start
    return count, total


def _count_sum(spans, name, key) -> float:
    return sum(c.get(key, 0) for n, _, _, _, c in spans if n == name and c)


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics from one or more span lists (one per process)."""
    m: dict = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    resident = 0.0
    kind_time = {k: 0.0 for k in MODEL_KINDS}
    kind_rows = {k: 0 for k in MODEL_KINDS}
    for spans in span_lists:
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            add(f"{layer}.spans", 1)
            add(f"{layer}.self_s", end - start - children[i])

        def timed(key_s, names, key_calls=None):
            calls, total = _durations(spans, names)
            add(key_s, total)
            if key_calls:
                add(key_calls, calls)

        timed("embeddings.load_s", ["embeddings.load_diachronic",
                                    "embeddings.load_embedding_space"])
        add("embeddings.load_values", _count_sum(spans, "embeddings.load_embedding_space", "values"))
        timed("embeddings.save_s", ["embeddings.save_embedding_space"])
        add("embeddings.save_values", _count_sum(spans, "embeddings.save_embedding_space", "values"))
        timed("embeddings.align_s", ["embeddings.align_diachronic",
                                     "embeddings.align_procrustes"])
        for n, _, _, _, c in spans:
            if n == "embeddings.load_diachronic" and c:
                resident = max(resident, c["bytes"] / 2**20)

        timed("lexicon.load_s", ["lexicon.load_mfd", "lexicon.load_norms"])
        add("lexicon.norm_rows", _count_sum(spans, "lexicon.load_norms", "rows"))
        timed("lexicon.seed_vectors_s", ["lexicon.seed_vectors"])
        add("lexicon.seeds_embedded", _count_sum(spans, "lexicon.seed_vectors", "rows"))

        timed("classifiers.fit_s", ["classifiers.fit"], "classifiers.fit_calls")
        timed("classifiers.select_bandwidth_s", ["classifiers.select_bandwidth"],
              "classifiers.select_bandwidth_calls")
        timed("classifiers.posterior_s", ["classifiers.posterior_batch"],
              "classifiers.posterior_calls")
        for n, start, end, _, c in spans:
            if n == "classifiers.posterior_batch" and c:
                add("classifiers.posterior_rows", c["rows"])
                kind_time[c["kind"]] += end - start
                kind_rows[c["kind"]] += c["rows"]

        timed("evaluate.loo_s", ["evaluate.loo_accuracy"], "evaluate.loo_calls")
        add("evaluate.loo_folds", _count_sum(spans, "evaluate.loo_accuracy", "folds"))

        timed("diachronic.time_course_s", ["diachronic.time_course"],
              "diachronic.time_course_calls")
        timed("diachronic.matrix_s", ["diachronic.prediction_matrix"])
        add("diachronic.matrix_cells", _count_sum(spans, "diachronic.prediction_matrix", "cells"))
        timed("diachronic.retrieve_s", ["diachronic.retrieve_changing"])
        add("diachronic.retrieve_candidates",
            sum(1 for n, _, _, p, _ in spans
                if n == "stats.slope_test" and p >= 0
                and spans[p][0] == "diachronic.retrieve_changing"))

        timed("stats.slope_test_s", ["stats.slope_test"], "stats.slope_test_calls")
        timed("stats.regress_s", ["stats.psycholinguistic_regression"])
        timed("stats.permute_s", ["stats.permutation_control"])
        add("stats.shuffles", _count_sum(spans, "stats.permutation_control", "shuffles"))

    m["embeddings.resident_mb"] = resident
    values = m.get("embeddings.load_values", 0)
    m["embeddings.load_ns_per_value"] = 1e9 * m["embeddings.load_s"] / values if values else 0.0
    folds = m.get("evaluate.loo_folds", 0)
    m["evaluate.loo_ms_per_fold"] = 1e3 * m["evaluate.loo_s"] / folds if folds else 0.0
    shuffles = m.pop("stats.shuffles", 0)
    m["stats.permute_ms_per_shuffle"] = 1e3 * m["stats.permute_s"] / shuffles if shuffles else 0.0
    for k in MODEL_KINDS:
        rows = kind_rows[k]
        m[f"classifiers.posterior_us_per_row.{k}"] = 1e6 * kind_time[k] / rows if rows else 0.0
    return m


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
