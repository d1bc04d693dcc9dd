"""Span tracing from outside zecap, and the per-layer metrics built on it.

The traced run replaces module attributes of zecap with wrappers that record
a span (name, start, end, parent, instance id) and, where the result carries
one, a count.  zecap's pipelines call their stages through module globals,
so wrapping the attribute intercepts those calls; names that `zecap.cli`
imported directly are wrapped in its namespace as well.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

# Per-layer metrics of a traced run, with their units, in report order.
PER_LAYER = (
    ("search.build_s", "s"),
    ("search.reduce_s", "s"),
    ("search.universe", "count"),
    ("search.kept", "count"),
    ("search.kept_ratio", "ratio"),
    ("search.pack_s", "s"),
    ("search.predicate_s", "s"),
    ("search.bnb_s", "s"),
    ("search.nodes", "count"),
    ("search.lexmin_s", "s"),
    ("search.lexmin_calls", "count"),
    ("search.probe_given_nodes", "count"),
    ("search.probe_seeded_nodes", "count"),
    ("search.probe_seeded_s", "s"),
    ("model.walks_s", "s"),
    ("model.walks", "count"),
    ("model.distinguishable_calls", "count"),
    ("construct.family_s", "s"),
    ("construct.words", "count"),
    ("construct.verify_s", "s"),
    ("construct.verify_pairs", "count"),
    ("construct.verify_pairs_per_s", "1/s"),
    ("capacity.solve_s", "s"),
    ("capacity.bisect_iters", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.file_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("bench.wall_solve_s", "s"),
    ("bench.slowdown", "ratio"),
)

# Wrappers double the Python frames of a recursive stage, so the traced run
# needs this much more recursion headroom than zecap sets for itself.
RECURSION_HEADROOM = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: Optional[str]


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.instance: Optional[str] = None
        self._open: list[int] = []

    def span(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; `count(args, result)`
        returns counts to add."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.instance)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                self.counts.update(count(args, result))
            return result
        return wrapper

    def tally(self, fn: Callable, count: Callable) -> Callable:
        """Wrap fn to record counts only: for stages called too often to
        afford a span each, or whose time belongs to their caller."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts.update(count(args, result))
            return result
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def total_time(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def total_self_time(spans: list[Span], selfs: list[float], name: str
                    ) -> float:
    return sum(t for s, t in zip(spans, selfs) if s.name == name)


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on zecap for the duration."""
    import zecap.capacity as capacity
    import zecap.cli as cli
    import zecap.construct as construct
    import zecap.model as model
    import zecap.search as search

    def dominated(args, keep):
        return {"search.universe": args[0].shape[0],
                "search.kept": int(keep.sum())}

    def pairs(args, report):
        return {"construct.verify_pairs": report.checked_pairs,
                "model.distinguishable_calls": report.checked_pairs}

    patches = [
        (search, "distinguishability_matrix", "search.build_s", None),
        (search, "dominated_vertex_mask", "search.reduce_s", dominated),
        (search, "_rows_to_bitsets", "search.pack_s", None),
        (search, "max_clique", "search.predicate_s", None),
        (search, "max_clique_bitset", "search.bnb_s",
         lambda args, res: {"search.nodes": res.nodes_explored}),
        (search, "_lex_min_witness", "search.lexmin_s", None),
        (cli, "main", "cli.self_s", lambda args, res: {"cli.calls": 1}),
    ]
    walks = lambda args, res: {"model.walks": len(res)}
    for module in (model, search):
        patches.append((module, "enumerate_walks", "model.walks_s", walks))
    for module in (construct, cli):
        patches.append((module, "verify_code", "construct.verify_s", pairs))
    for module in (capacity, cli):
        patches.append((module, "solve_characteristic", "capacity.solve_s",
                        lambda args, res: {"capacity.bisect_iters":
                                           res.iterations}))
    tallies = [
        (search, "_has_clique_of_size",
         lambda args, res: {"search.lexmin_calls": 1}),
        (cli, "write_word_file",
         lambda args, res: {"cli.file_bytes": os.path.getsize(args[0])}),
    ]

    saved = [(module, attr, getattr(module, attr))
             for module, attr, *_ in patches + tallies]
    families = dict(construct.FAMILIES)
    limit = sys.getrecursionlimit()
    try:
        for module, attr, name, count in patches:
            setattr(module, attr, tracer.span(getattr(module, attr), name,
                                              count))
        for module, attr, count in tallies:
            setattr(module, attr, tracer.tally(getattr(module, attr), count))
        for family, build in families.items():
            construct.FAMILIES[family] = tracer.span(
                build, "construct.family_s",
                lambda args, code: {"construct.words": len(code)})
        sys.setrecursionlimit(limit * RECURSION_HEADROOM)
        yield tracer
    finally:
        sys.setrecursionlimit(limit)
        construct.FAMILIES.update(families)
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (probe and overhead excluded)."""
    spans = tracer.spans
    selfs = self_times(spans)
    counts = tracer.counts
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name in ("search.build_s", "search.reduce_s", "search.pack_s",
                 "search.lexmin_s", "model.walks_s", "construct.family_s",
                 "construct.verify_s", "capacity.solve_s"):
        out[name] = total_time(spans, name)
    for name in ("search.predicate_s", "search.bnb_s", "cli.self_s"):
        out[name] = total_self_time(spans, selfs, name)
    for name in ("search.universe", "search.kept", "search.nodes",
                 "search.lexmin_calls", "model.walks",
                 "model.distinguishable_calls", "construct.words",
                 "construct.verify_pairs", "capacity.bisect_iters",
                 "cli.calls", "cli.file_bytes"):
        out[name] = counts[name]
    if out["search.universe"]:
        out["search.kept_ratio"] = out["search.kept"] / out["search.universe"]
    if out["construct.verify_s"]:
        out["construct.verify_pairs_per_s"] = (out["construct.verify_pairs"]
                                               / out["construct.verify_s"])
    return out
