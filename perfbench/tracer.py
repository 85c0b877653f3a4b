"""Spans and counts recorded around the module boundaries of ``efgc``.

Nothing here lives inside the solver package: a :class:`Tracer` replaces
module attributes with thin wrappers and puts the originals back when it
is closed.  The modules import one another with ``from ... import``, so a
wrapper goes on the name in the *calling* module's namespace -- wrapping
``efgc.few_edges.lp_feasible`` catches the few-edges search calling the
LP layer and nothing else.

Every wrapped call becomes one span: kind, start, end, the span that was
open when it started (its parent) and the request it belongs to.  Spans
stay in memory; :func:`layer_metrics` turns them into per-layer metrics
once the run is over.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so the
children of one span never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

REQUEST = "request"
LAYERS = ("cli", "few_edges", "cells", "linprog", "component_lp", "matching", "model")
# LP span kinds by the layer that makes the call
LP_KINDS = {
    "few_edges": ["linprog.lp_feasible@few_edges"],
    "cells": ["linprog.lp_feasible@cells", "linprog.strict_feasible@cells"],
    "component_lp": ["linprog.lp_feasible@component_lp"],
}


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    request: int | None
    kind: str
    start: float
    end: float = 0.0
    # outcome read off the arguments and the result after the span has
    # ended: ok = feasible / perfect / yes; rows and cols size an LP
    ok: bool | None = None
    rows: int = 0
    cols: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _inspect_lp(span: Span, args, result) -> None:
    system = args[0]
    span.ok = type(result).__name__ == "Feasible"
    span.rows = len(system.constraints)
    span.cols = len(system.variables)


def _inspect_matching(span: Span, args, result) -> None:
    graph = args[0]
    span.ok = len(result) == len(graph.left) == len(graph.right)


def _inspect_verdict(span: Span, args, result) -> None:
    span.ok = bool(result.yes)


# (module, attribute, span kind, inspector): where each boundary is
# wrapped.  The span kind is "<layer>.<operation>", and for the LP layer
# also "@<calling layer>".
BOUNDARIES = (
    ("efgc.cli", "parse_instance", "cli.parse", None),
    ("efgc.cli", "emit_assignment", "cli.emit", None),
    ("efgc.cli", "solve_few_edges", "few_edges.solve", None),
    ("efgc.cli", "solve_tree_vdgc", "component_lp.solve", None),
    ("efgc.cli", "solve_tree_gc_bounded_degree", "component_lp.solve", None),
    ("efgc.cli", "solve_cycle", "component_lp.solve", None),
    ("efgc.few_edges", "build_lp", "few_edges.build_lp", None),
    ("efgc.few_edges", "enumerate_sign_conditions", "cells.enumerate", None),
    ("efgc.few_edges", "lp_feasible", "linprog.lp_feasible@few_edges", _inspect_lp),
    ("efgc.few_edges", "compatibility_graph", "matching.compat", None),
    ("efgc.few_edges", "max_bipartite_matching", "matching.match", _inspect_matching),
    ("efgc.few_edges", "verify_assignment", "model.verify", None),
    ("efgc.cells", "lp_feasible", "linprog.lp_feasible@cells", _inspect_lp),
    ("efgc.cells", "strict_feasible", "linprog.strict_feasible@cells", _inspect_lp),
    ("efgc.linprog", "lp_max", "linprog.lp_max", None),
    ("efgc.component_lp", "solve_with_cut_set", "component_lp.cut_set", _inspect_verdict),
    ("efgc.component_lp", "lp_feasible", "linprog.lp_feasible@component_lp", _inspect_lp),
    ("efgc.component_lp", "verify_assignment", "model.verify", None),
)


class Tracer:
    """Collects spans from wrapped boundaries; use as a context manager.

    ``clock`` is injectable so that tests can drive synthetic timelines.
    """

    def __init__(self, boundaries=BOUNDARIES, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[Span] = []
        self._boundaries = boundaries
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, kind, inspector in self._boundaries:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, kind, inspector))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _open(self, kind: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            parent.sid if parent else None,
            parent.request if parent else None,
            kind,
            self._clock(),
        )
        if kind == REQUEST:
            span.request = span.sid
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    def wrap(self, func: Callable, kind: str, inspector: Callable | None = None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(kind)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if inspector is not None:
                inspector(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def request(self):
        """Open the root span of one request."""
        span = self._open(REQUEST)
        try:
            yield span
        finally:
            self._close(span)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_of(kind: str) -> str:
    """Layer owning a span kind; the root request span is the CLI's own
    work (argument parsing, dispatch, output) around the wrapped calls."""
    return "cli" if kind == REQUEST else kind.split(".", 1)[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run; see README.md for each."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    oks: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    cols: dict[str, int] = defaultdict(int)
    layer_own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        kind = span.kind
        calls[kind] += 1
        total[kind] += span.duration
        own[kind] += self_s
        layer_own[layer_of(kind)] += self_s
        if span.ok is not None:
            oks[kind] += span.ok
            rows[kind] += span.rows
            cols[kind] += span.cols

    def sum_of(table, kinds):
        return sum(table[k] for k in kinds)

    request_s = total[REQUEST]
    m: dict[str, float] = {"request.count": calls[REQUEST], "request.s": request_s}

    m["cli.self_s"] = own[REQUEST]
    m["cli.parse.s"] = total["cli.parse"]
    m["cli.emit.s"] = total["cli.emit"]

    built = calls["few_edges.build_lp"]
    m["few_edges.self_s"] = own["few_edges.solve"]
    m["few_edges.build_lp.calls"] = built
    m["few_edges.build_lp.s"] = total["few_edges.build_lp"]
    m["few_edges.lp_cache_hit_ratio"] = (
        1.0 - calls["linprog.lp_feasible@few_edges"] / built if built else 0.0
    )

    strict = "linprog.strict_feasible@cells"
    m["cells.calls"] = calls["cells.enumerate"]
    m["cells.s"] = total["cells.enumerate"]
    m["cells.self_s"] = own["cells.enumerate"]
    m["cells.strict_lp.calls"] = calls[strict]
    m["cells.realized_ratio"] = _ratio(oks[strict], calls[strict])

    feasible = [k for ks in LP_KINDS.values() for k in ks if k != strict]
    m["linprog.lp_feasible.calls"] = sum_of(calls, feasible)
    m["linprog.lp_feasible.s"] = sum_of(total, feasible)
    m["linprog.strict_feasible.calls"] = calls[strict]
    m["linprog.strict_feasible.s"] = total[strict]
    blocks = {"linprog": feasible + [strict]}
    blocks.update((f"linprog.{caller}", kinds) for caller, kinds in LP_KINDS.items())
    for prefix, kinds in blocks.items():
        n = sum_of(calls, kinds)
        seconds = sum_of(total, kinds)
        m[f"{prefix}.calls"] = n
        m[f"{prefix}.s"] = seconds
        m[f"{prefix}.infeasible_ratio"] = _ratio(n - sum_of(oks, kinds), n)
        m[f"{prefix}.rows_mean"] = _ratio(sum_of(rows, kinds), n)
        m[f"{prefix}.cols_mean"] = _ratio(sum_of(cols, kinds), n)
        m[f"{prefix}.us_per_call"] = _ratio(seconds, n) * 1e6

    cut_sets = calls["component_lp.cut_set"]
    m["component_lp.self_s"] = own["component_lp.solve"] + own["component_lp.cut_set"]
    m["component_lp.cut_sets.calls"] = cut_sets
    m["component_lp.cut_set_yes_ratio"] = _ratio(oks["component_lp.cut_set"], cut_sets)

    m["matching.calls"] = calls["matching.match"]
    m["matching.s"] = total["matching.compat"] + total["matching.match"]
    m["matching.perfect_ratio"] = _ratio(oks["matching.match"], calls["matching.match"])

    m["model.verify.calls"] = calls["model.verify"]
    m["model.verify.s"] = total["model.verify"]

    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(layer_own[layer], request_s)
    return m


def write_spans(spans: Sequence[Span], path: str) -> None:
    """Dump the spans as tab-separated text, one line per span."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("sid\tparent\trequest\tkind\tstart\tend\tok\trows\tcols\n")
        for s in spans:
            out.write(
                f"{s.sid}\t{'' if s.parent is None else s.parent}\t"
                f"{'' if s.request is None else s.request}\t{s.kind}\t"
                f"{s.start:.9f}\t{s.end:.9f}\t{'' if s.ok is None else int(s.ok)}\t"
                f"{s.rows}\t{s.cols}\n"
            )


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".calls", ".count", "_mean")):
        return "count"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith((".s", "self_s")):
        return "s"
    return "ratio"
