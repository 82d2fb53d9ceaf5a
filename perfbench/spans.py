"""Outside-in per-layer tracing.

``Tracer`` wraps the public entry points of each layer while it is active
(a ``with`` block) and restores the originals on exit; nothing in the
library is edited.  Wrapped entry points:

* engine: ``reach`` (the root span, called by the benchmark through
  ``Tracer.reach``), ``marker_dfs``, the ``edge_test`` callback that
  ``marker_dfs`` receives, ``base_dfs``;
* auxgraph: ``iter_candidates`` (engine's binding), timed inside every
  ``next()`` of the returned iterator;
* grid: ``SubgridView.north_row`` / ``east_row``;
* metrics: ``Metrics.charge`` / ``release``.

Each span adds its duration to its parent's child time, so a span's self
time is its duration minus its children's.  Spans are not kept: they are
folded into per-(layer, depth) aggregates as they close.  The self times of
all layers plus the root's self time add up to the summed ``reach`` wall
time.  ``edge_test`` self time covers the child ``_reach`` call's dispatch,
prefilter, subview and straight walk, which have no public entry point.
"""

from __future__ import annotations

import time

MAX_DEPTH = 5  # depths d0..d4: n=512 at epsilon=1 has five levels


class Agg:
    """Calls, total and self nanoseconds, and True results of one span kind."""

    __slots__ = ("calls", "total_ns", "self_ns", "trues")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.trues = 0


class Tracer:
    """Span aggregates of the queries run through ``Tracer.reach``."""

    def __init__(self, gridreach, reach_fn):
        self._engine = gridreach.engine
        self._view = gridreach.grid.SubgridView
        self._metrics = gridreach.metrics.Metrics
        self._reach_fn = reach_fn
        self._child = [0]  # child-time accumulator of every open span
        self.reach_agg = Agg()
        self.marker = [Agg() for _ in range(MAX_DEPTH)]
        self.edge = [Agg() for _ in range(MAX_DEPTH)]
        self.k_by_depth = [0] * MAX_DEPTH
        self.base = Agg()
        self.cand = Agg()  # calls = iterators created, trues = yields
        self.rows = Agg()
        self.charge = Agg()
        self._patches = []

    # -- installation ------------------------------------------------------
    def __enter__(self):
        e, v, m = self._engine, self._view, self._metrics
        self._patch(e, "marker_dfs", self._wrap_marker(e.marker_dfs))
        self._patch(e, "base_dfs", self._wrap_plain(e.base_dfs, self.base))
        self._patch(e, "iter_candidates", self._wrap_candidates(e.iter_candidates))
        self._patch(v, "north_row", self._wrap_plain(v.north_row, self.rows))
        self._patch(v, "east_row", self._wrap_plain(v.east_row, self.rows))
        self._patch(m, "charge", self._wrap_plain(m.charge, self.charge))
        self._patch(m, "release", self._wrap_plain(m.release, self.charge))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)
        return False

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- root span ---------------------------------------------------------
    def reach(self, g, s, t, cfg):
        """``reach_fn`` as the root span; the caller's clock is outside."""
        child = self._child
        agg = self.reach_agg
        child.append(0)
        t0 = time.perf_counter_ns()
        try:
            return self._reach_fn(g, s, t, cfg)
        finally:
            dt = time.perf_counter_ns() - t0
            c = child.pop()
            agg.calls += 1
            agg.total_ns += dt
            agg.self_ns += dt - c

    # -- wrappers ----------------------------------------------------------
    def _wrap_plain(self, fn, agg):
        child = self._child
        clock = time.perf_counter_ns

        def wrapper(*args):
            child.append(0)
            t0 = clock()
            try:
                r = fn(*args)
            finally:
                dt = clock() - t0
                c = child.pop()
                child[-1] += dt
                agg.calls += 1
                agg.total_ns += dt
                agg.self_ns += dt - c
            if r is True:
                agg.trues += 1
            return r

        return wrapper

    def _wrap_marker(self, fn):
        child = self._child
        clock = time.perf_counter_ns
        tracer = self

        def marker_dfs(p, g, u, v, edge_test, metrics=None, depth=0, **kw):
            if p.k > tracer.k_by_depth[depth]:
                tracer.k_by_depth[depth] = p.k
            agg = tracer.marker[depth]
            et = tracer._wrap_plain(edge_test, tracer.edge[depth])
            child.append(0)
            t0 = clock()
            try:
                return fn(p, g, u, v, et, metrics, depth=depth, **kw)
            finally:
                dt = clock() - t0
                c = child.pop()
                child[-1] += dt
                agg.calls += 1
                agg.total_ns += dt
                agg.self_ns += dt - c

        return marker_dfs

    def _wrap_candidates(self, fn):
        child = self._child
        clock = time.perf_counter_ns
        agg = self.cand

        class TimedCandidates:
            __slots__ = ("gen",)

            def __init__(self, gen):
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                t0 = clock()
                try:
                    item = next(self.gen)
                finally:
                    dt = clock() - t0
                    child[-1] += dt
                    agg.total_ns += dt
                    agg.self_ns += dt
                agg.trues += 1
                return item

        def iter_candidates(*args):
            agg.calls += 1
            return TimedCandidates(fn(*args))

        return iter_candidates

    # -- summaries ---------------------------------------------------------
    def self_seconds(self) -> float:
        """Self time of every span kind, root included, in seconds."""
        aggs = [self.reach_agg, self.base, self.cand, self.rows, self.charge,
                *self.marker, *self.edge]
        return sum(a.self_ns for a in aggs) / 1e9
