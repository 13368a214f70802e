"""In-memory spans and exact counters around motiveforge's layer entry points.

The package itself carries no instrumentation, so the wrappers are attached
from outside:

* a module-level function is replaced under its own name in every
  ``motiveforge`` module that holds it, which is where its callers look it
  up (``from .series_engine import series_product`` binds the name in
  ``moduli_formulas``);
* an operator is replaced on its class (``UVLaurent.__mul__``), together
  with its reflected twin.

Every call records one span ``(name, start, end, parent, query)`` in a
list; a layer's self time is its spans' durations minus the durations of
their direct child spans.  Counters that measure work (operand sizes,
denominator factors) are exact and repeat exactly for the same inputs.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

# (module, function) pairs wrapped as spans named "<module>.<function>".
LAYER_FUNCTIONS = (
    ("cli", "identity_test"),
    ("adhm", "adhm_class"),
    ("adhm", "plog_series"),
    ("adhm", "partition_sum"),
    ("series_engine", "series_log"),
    ("series_engine", "eval_at_one"),
    ("series_engine", "series_product"),
    ("base_rings", "exact_divide"),
    ("moduli_formulas", "motive"),
    ("moduli_formulas", "vhs_class"),
    ("moduli_formulas", "epoly"),
    ("moduli_formulas", "poincare"),
    ("curve_ring", "lambda_series"),
    ("curve_ring", "sym_power_class"),
    ("curve_ring", "frobenius"),
    ("curve_ring", "make_weil_env"),
    ("curve_ring", "make_hodge_env"),
    ("export", "poly_to_json"),
)


def _n_terms(x) -> int:
    """Stored terms of a UVLaurent; a scalar operand counts as one term."""
    items = getattr(x, "items", None)
    return sum(1 for _ in items()) if items is not None else 1


def _count_uvlaurent_mul(counts, name, args, result) -> None:
    na, nb = _n_terms(args[0]), _n_terms(args[1])
    counts[name + ".term_pairs"] += na * nb
    if min(na, nb) < 10:
        counts[name + ".short_calls"] += 1


def _count_trational_add(counts, name, args, result) -> None:
    # the sum is formed over the multiset union (max multiplicity) of the
    # two denominators; scalars enter with an empty denominator
    union = Counter(args[0].den) | Counter(getattr(args[1], "den", ()))
    _count_factors(counts, sum(union.values()), result)


def _count_trational_mul(counts, name, args, result) -> None:
    _count_factors(counts, len(args[0].den) + len(getattr(args[1], "den", ())), result)


def _count_factors(counts, factors_in: int, result) -> None:
    counts["series_engine.TRational.factors_in"] += factors_in
    counts["series_engine.TRational.factors_cancelled"] += factors_in - len(result.den)


def _count_biseries_mul(counts, name, args, result) -> None:
    counts[name + ".terms_out"] += len(result.terms)


# (module, class, span suffix, attributes, counter) for wrapped operators.
LAYER_OPERATORS = (
    ("base_rings", "UVLaurent", "mul", ("__mul__", "__rmul__"), _count_uvlaurent_mul),
    ("series_engine", "TRational", "add", ("__add__", "__radd__"), _count_trational_add),
    ("series_engine", "TRational", "mul", ("__mul__", "__rmul__"), _count_trational_mul),
    ("series_engine", "BiSeries", "mul", ("__mul__",), _count_biseries_mul),
)

COUNTERS = (
    "base_rings.UVLaurent.mul.term_pairs",
    "base_rings.UVLaurent.mul.short_calls",
    "series_engine.TRational.factors_in",
    "series_engine.TRational.factors_cancelled",
    "series_engine.BiSeries.mul.terms_out",
)


def span_names():
    names = [f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS]
    names += [f"{mod}.{cls}.{op}" for mod, cls, op, _, _ in LAYER_OPERATORS]
    return names


class Tracer:
    """Span recorder.  ``query`` tags the spans of the query being run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.query = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query)
            if count is not None and result is not NotImplemented:
                count(counts, name, args, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Attach the wrappers; ``modules`` maps short names to the
        imported ``motiveforge`` submodules."""
        for mod, fn in LAYER_FUNCTIONS:
            original = getattr(modules[mod], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for holder in modules.values():
                if getattr(holder, fn, None) is original:
                    self._undo.append((holder, fn, original))
                    setattr(holder, fn, wrapper)
        for mod, cls_name, op, attrs, count in LAYER_OPERATORS:
            cls = getattr(modules[mod], cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{mod}.{cls_name}.{op}", original, count))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def summary(self):
        """name -> (calls, total seconds, self seconds), for every span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: (0, 0.0, 0.0) for name in span_names()}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out[name]
            out[name] = (calls + 1, total + (end - start), own + (end - start - child[idx]))
        return out

    def metrics(self):
        """Flat per-layer metrics: ``<span>.calls``, ``<span>.s`` (inclusive
        time), ``<span>.self_s`` and the exact counters."""
        out = {}
        for name, (calls, total, own) in self.summary().items():
            out[name + ".calls"] = calls
            out[name + ".s"] = total
            out[name + ".self_s"] = own
        out.update(self.counts)
        return out

    def write(self, path, origin: float) -> None:
        """Write the spans as gzipped JSON lines, times relative to origin."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, query]) + "\n")
