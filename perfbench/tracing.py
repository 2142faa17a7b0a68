"""Spans around the public functions of each ``ecsquares`` module, from outside.

The modules import each other's functions by name (``from .numeric import
perfect_square_root``), so a wrapper must replace the name where it is
called: ``ecsquares.sequence.perfect_square_root``, not only
``ecsquares.numeric.perfect_square_root``.  ``FieldContext`` table methods
are wrapped on the class.

A span is recorded at each wrapped call: its name, its parent span, its
duration and the part of that duration its child spans cover, so a layer's
self time is its duration minus its children.  The search workloads make
about a million square-test spans per pass, so spans are aggregated per
(name, parent) as they close rather than kept one by one; the worker writes
the table out when the pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# (module, attribute, span name).  Each span name's prefix is its layer.
FUNCTION_TARGETS = (
    ("ecsquares.cli", "main", "cli.main"),
    ("ecsquares.cli", "render_records", "records.render_records"),
    ("ecsquares.cli", "run_search", "search.run_search"),
    ("ecsquares.cli", "paper_check", "search.paper_check"),
    ("ecsquares.cli", "perfect_square_root", "numeric.perfect_square_root"),
    ("ecsquares.cli", "realize_trace", "curves.realize_trace"),
    ("ecsquares.cli", "count_points_naive", "curves.count_points_naive"),
    ("ecsquares.cli", "base_change_count", "curves.base_change_count"),
    ("ecsquares.search", "search_pairs", "search.search_pairs"),
    ("ecsquares.search", "verify_hit", "search.verify_hit"),
    ("ecsquares.search", "square_hits_scan", "sequence.square_hits_scan"),
    ("ecsquares.sequence", "perfect_square_root", "numeric.perfect_square_root"),
    ("ecsquares.sequence", "isqrt", "numeric.isqrt"),
    ("ecsquares.traces", "isqrt", "numeric.isqrt"),
    ("ecsquares.numeric", "isqrt", "numeric.isqrt"),
    ("ecsquares.curves", "make_field_context", "finitefield.make_field_context"),
    ("ecsquares.curves", "embed_field", "finitefield.embed_field"),
)

# FieldContext methods: construction and the cached exhaustive-count tables.
CONTEXT_TARGETS = (
    ("__init__", "finitefield.FieldContext"),
    ("element_tuples", "finitefield.table"),
    ("square_counter", "finitefield.table"),
    ("artin_schreier_counter", "finitefield.table"),
    ("square_table", "finitefield.table"),
    ("cube_table", "finitefield.table"),
    ("inverse_square_table", "finitefield.table"),
)


def _count_squares(counters, args, result):
    if result is not None:
        counters["numeric.squares"] += 1


def _count_bytes(counters, args, result):
    counters["records.bytes"] += len(result.encode("utf-8"))


def _count_elements(counters, args, result):
    curve, n = args[0], args[1]
    counters["curves.elements"] += curve.ctx.q ** n


# span name -> hook(counters, args, result) run after the span closes.
RESULT_HOOKS = {
    "numeric.perfect_square_root": _count_squares,
    "records.render_records": _count_bytes,
    "curves.base_change_count": _count_elements,
}


class Tracer:
    """Aggregated span table for one process; ``install`` creates it."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}   # -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack: list[list] = []                          # [name, child_s]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = spans.get((name, parent))
                if entry is None:
                    entry = spans[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def span_table(self) -> list[dict]:
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (name, parent), (calls, total, self_s) in sorted(
                    self.spans.items(), key=lambda item: (item[0][0], str(item[0][1])))]


def install() -> Tracer:
    """Wrap every target in the imported ``ecsquares`` modules."""
    import importlib

    from ecsquares.finitefield import FieldContext

    tracer = Tracer()
    for module, attribute, name in FUNCTION_TARGETS:
        tracer.patch(importlib.import_module(module), attribute, name)
    for attribute, name in CONTEXT_TARGETS:
        tracer.patch(FieldContext, attribute, name)
    return tracer


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one pass's span table."""

    def total(field: str, name: str, parent: str | None = "*") -> float:
        return sum(s[field] for s in spans
                   if s["name"] == name and (parent == "*" or s["parent"] == parent))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    terms = total("calls", "numeric.perfect_square_root", "sequence.square_hits_scan")
    scan_self = total("self_s", "sequence.square_hits_scan")
    filtered_isqrt = total("calls", "numeric.isqrt", "numeric.perfect_square_root")
    count_self = total("self_s", "curves.base_change_count")
    return {
        "numeric.square_test_calls": (total("calls", "numeric.perfect_square_root"), "count"),
        "numeric.square_test_self_s": (total("self_s", "numeric.perfect_square_root"), "s"),
        "numeric.isqrt_calls": (total("calls", "numeric.isqrt"), "count"),
        "numeric.isqrt_s": (total("total_s", "numeric.isqrt"), "s"),
        "numeric.isqrt_yield": (ratio(counters.get("numeric.squares", 0), filtered_isqrt),
                                "ratio"),
        "sequence.scan_calls": (total("calls", "sequence.square_hits_scan"), "count"),
        "sequence.terms": (terms, "count"),
        "sequence.scan_self_s": (scan_self, "s"),
        "sequence.terms_per_s": (ratio(terms, scan_self), "1/s"),
        "search.pairs_s": (total("total_s", "search.search_pairs"), "s"),
        "search.run_self_s": (total("self_s", "search.run_search"), "s"),
        "search.verify_calls": (total("calls", "search.verify_hit"), "count"),
        "search.verify_s": (total("total_s", "search.verify_hit"), "s"),
        "search.paper_check_s": (total("total_s", "search.paper_check"), "s"),
        "records.render_s": (total("total_s", "records.render_records"), "s"),
        "records.bytes": (counters.get("records.bytes", 0), "B"),
        "cli.self_s": (total("self_s", "cli.main"), "s"),
        "finitefield.contexts_built": (total("calls", "finitefield.FieldContext"), "count"),
        "finitefield.context_s": (total("total_s", "finitefield.make_field_context"), "s"),
        "finitefield.table_s": (total("self_s", "finitefield.table"), "s"),
        "finitefield.embed_s": (total("self_s", "finitefield.embed_field"), "s"),
        "curves.realize_calls": (total("calls", "curves.realize_trace"), "count"),
        "curves.realize_self_s": (total("self_s", "curves.realize_trace"), "s"),
        "curves.count_calls": (total("calls", "curves.base_change_count"), "count"),
        "curves.count_self_s": (count_self, "s"),
        "curves.elements_per_s": (ratio(counters.get("curves.elements", 0), count_self), "1/s"),
    }
