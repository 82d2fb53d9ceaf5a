#!/usr/bin/env python3
"""Seeded query benchmark for gridreach.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-cross --seed 1 --seconds 30 --trace 0

One process drives ``gridreach.reach`` as a closed loop with one client:
each query starts after the previous one returns.  The loop cycles over the
workload's query list (see ``workloads.py``) until ``--seconds`` have
passed, always finishing at least one full pass; a visit repeats a query of
a few microseconds back to back, and a query's latency is the fastest of
its executions.  Every verdict is compared with ``oracle_reach``
after the timed region.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their times are scaled to a reference host speed (see ``hostspeed.py``);
the info line gives the plain wall times beside them.
``--trace 1`` runs untraced passes over the first half of the queries for
half the time and traced passes over them for the rest, and reports the
per-layer metrics per traced pass (see ``spans.py``) plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, the input fingerprint and the workload's
measured properties.  A failed query is reported on standard error with
the seed, workload, graph index and endpoints needed to replay it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from spans import MAX_DEPTH, Tracer
from workloads import EPSILON, WORKLOADS, fingerprint, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
CPU_SWITCHES = 16  # moves between CPUs per pass, see run_batch
VISIT_NS = 30_000  # query time per visit of a query, see run_batch


def load_gridreach():
    """Import gridreach from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gridreach" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridreach sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gridreach" or m.startswith("gridreach.")]:
        del sys.modules[name]
    return importlib.import_module("gridreach")


def setup(w, seed):
    """Import the library and generate the inputs, repeatedly.

    Set-up runs at least ``SETUP_MIN_REPS`` times and for ``SETUP_MIN_S``
    seconds, so that a set-up of a few milliseconds is repeated often enough
    for its median to repeat.  Returns the last repetition's module and
    inputs with the median set-up time, scaled to the reference host (see
    ``hostspeed.py``), and the median wall time of the generators.
    """
    speed = HostSpeed()
    setup_s, gen_s = [], []
    start = time.perf_counter()
    while len(setup_s) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        before = speed.sample()
        t0 = time.perf_counter_ns()
        gr = load_gridreach()
        graphs, queries, gen = make_inputs(gr, w, seed)
        ns = time.perf_counter_ns() - t0
        # A repetition outlasts the host's slow spells: scale it by the
        # reference's mean time over it.
        setup_s.append(speed.scale(ns, (before + speed.sample()) / 2) / 1e9)
        gen_s.append(gen)
    return gr, graphs, queries, statistics.median(setup_s), statistics.median(gen_s)


class Batch:
    """Timings and outcomes of one closed-loop batch over a query list."""

    def __init__(self, nq):
        self.best_ns = [None] * nq  # fastest execution of each query, scaled
        self.best_wall_ns = [None] * nq  # the same, in plain wall time
        self.wall_ns = 0  # summed wall time of every execution
        self.speed = HostSpeed()
        # (query index, outcome) -> [first Answer or exception, executions]
        self.outcomes = {}
        self.passes = 0

    @property
    def wall_s(self):
        return self.wall_ns / 1e9

    @property
    def results(self):
        """(query index, Answer or exception, executions) per distinct outcome."""
        return [(i, ans, reps) for (i, _), (ans, reps) in self.outcomes.items()]

    def record(self, i, ans, ns):
        scaled = self.speed.scale(ns)
        best = self.best_ns[i]
        if best is None or scaled < best:
            self.best_ns[i] = scaled
        best = self.best_wall_ns[i]
        if best is None or ns < best:
            self.best_wall_ns[i] = ns
        self.wall_ns += ns
        entry = self.outcomes.setdefault((i, outcome(ans)), [ans, 0])
        entry[1] += 1


def outcome(ans):
    """What the correctness check reads from one execution."""
    if isinstance(ans, Exception):
        return repr(ans)
    m = ans.metrics
    return (ans.reachable, m.peak_tracked_words, m.stack_bound_violations,
            m.visit_once_violations, m.push_bound_violations)


def run_batch(reach, cfg, graphs, queries, seconds, whole_passes=False, visit_ns=0):
    """Closed loop over ``queries`` until ``seconds`` pass, at least one pass.

    With ``whole_passes`` the loop stops only at the end of a pass.  Each
    visit of a query repeats it back to back until ``visit_ns`` of query
    time have passed (at least once), so that a query of a few microseconds
    is timed often enough for its fastest execution to repeat.  The loop
    moves between the CPUs the process may use ``CPU_SWITCHES`` times a
    pass, shifted by one CPU each pass, so that every query runs on each
    CPU over consecutive passes: on a shared host each virtual CPU slows
    down for seconds at a time, independently of the others.  The host's
    speed is sampled after each move and every ``hostspeed.EVERY_NS``.
    """
    clock = time.perf_counter_ns
    batch = Batch(len(queries))
    nq = len(queries)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    on = None
    deadline = time.perf_counter() + seconds
    i = 0
    try:
        while True:
            if len(cpus) > 1:
                cpu = cpus[(i * CPU_SWITCHES // nq + batch.passes) % len(cpus)]
                if cpu != on:
                    os.sched_setaffinity(0, {cpu})
                    on = cpu
                    batch.speed.sample()
            batch.speed.maybe_sample()
            gi, s, t = queries[i]
            g = graphs[gi]
            spent = 0
            while True:
                t0 = clock()
                try:
                    ans = reach(g, s, t, cfg)
                except Exception as exc:  # counted as a failed query, replayable
                    ans = exc
                dt = clock() - t0
                if isinstance(ans, Exception):
                    traceback.print_exception(ans, file=sys.stderr)
                batch.record(i, ans, dt)
                spent += dt
                if spent >= visit_ns:
                    break
            i += 1
            if i == nq:
                i = 0
                batch.passes += 1
                if time.perf_counter() >= deadline:
                    break
            elif not whole_passes and batch.passes and time.perf_counter() >= deadline:
                break
    finally:
        if on is not None:
            os.sched_setaffinity(0, cpus)
    return batch


def check(gr, w, seed, graphs, queries, results):
    """Compare every execution with the oracle, outside any timed region.

    Returns (failed executions, oracle verdict per query, oracle ms per query).
    An execution fails on a wrong verdict, an exception, or a nonzero
    stack-bound, visit-once or push-bound violation counter.
    """
    truth, oracle_ms = [], []
    for gi, s, t in queries:
        t0 = time.perf_counter()
        truth.append(gr.oracle_reach(gr.SubgridView.whole(graphs[gi]), s, t))
        oracle_ms.append((time.perf_counter() - t0) * 1e3)
    failed = 0
    for qi, ans, reps in results:
        if isinstance(ans, Exception):
            why = f"exception {ans!r}"
        elif ans.reachable != truth[qi]:
            why = f"verdict {ans.reachable}, oracle {truth[qi]}"
        elif (ans.metrics.stack_bound_violations or ans.metrics.visit_once_violations
              or ans.metrics.push_bound_violations):
            m = ans.metrics
            why = (f"violations stack={m.stack_bound_violations} "
                   f"visit={m.visit_once_violations} push={m.push_bound_violations}")
        else:
            continue
        failed += reps
        gi, s, t = queries[qi]
        print(f"FAILED workload={w.name} seed={seed} graph={gi} s={s[0]},{s[1]} "
              f"t={t[0]},{t[1]}: {why}", file=sys.stderr)
    return failed, truth, oracle_ms


def latencies(per_query_ns):
    """Median, p99 and queries per second of per-query times in ns."""
    ms = [ns / 1e6 for ns in per_query_ns]
    tail = statistics.quantiles(ms, n=100, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return statistics.median(ms), tail, len(ms) / (sum(ms) / 1e3)


def end_to_end(batch, setup_s):
    """The end-to-end metrics of an untraced batch, and its plain wall times.

    A query's latency is the fastest of its executions, each scaled to the
    reference host (see ``hostspeed.py``): the host's speed drifts with its
    neighbours' load, and the fastest of executions spread over the run is
    what stays put.  The tail is p99: every workload has over 4000 queries,
    so 40 or more lie beyond it.
    """
    p50, tail, qps = latencies(batch.best_ns)
    peak = max((a.metrics.peak_tracked_words for _, a, _ in batch.results
                if not isinstance(a, Exception)), default=0)
    wall = dict(zip(("query_p50_ms", "query_tail_ms", "queries_per_s"),
                    latencies(batch.best_wall_ns)))
    wall["host_ref_ms"] = statistics.median(batch.speed.samples) / 1e6
    return {
        "query_p50_ms": (p50, "ms"),
        "query_tail_ms": (tail, "ms"),
        "queries_per_s": (qps, "1/s"),
        "peak_tracked_words": (peak, "words"),
        "setup_s": (setup_s, "s"),
    }, wall


def per_layer(gr, w, tr, traced, untraced, gen_s, oracle_ms):
    """Per-layer metrics of one traced pass (totals divided by passes)."""
    np_ = traced.passes
    answers = executed(traced.results)
    pushes = sum(a.metrics.pushes for a in answers) / np_
    pops = sum(a.metrics.pops for a in answers) / np_
    rec = [0] * MAX_DEPTH
    peak = [0] * MAX_DEPTH
    for a in answers:
        for d, c in enumerate(a.metrics.recursive_calls_by_depth[:MAX_DEPTH]):
            rec[d] += c
        for d, f in enumerate(a.metrics.peak_stack_by_depth[:MAX_DEPTH]):
            peak[d] = max(peak[d], f)
    bounds = gr.Bounds(c_t=gr.metrics.DEFAULT_C_T, c_s=gr.metrics.DEFAULT_C_S)
    words_over = calls_over = 0
    for a in answers:
        report = gr.check_bounds(a.metrics, bounds, w.n, a.metrics.k_top)
        words_over += not report["words"]["passed"]
        calls_over += not report["calls"]["passed"]
    edge_calls = sum(a.calls for a in tr.edge)
    out = {
        "engine.reach.self_s": (tr.reach_agg.self_ns / 1e9 / np_, "s"),
        "engine.dispatch_only_frac": (dispatch_only_frac(answers), "ratio"),
        "engine.edge_test.true_frac": (
            sum(a.trues for a in tr.edge) / edge_calls if edge_calls else 0.0, "ratio"),
        "engine.pushes": (pushes, "count"),
        "engine.pops": (pops, "count"),
        "engine.pops_per_push": (pops / pushes if pushes else 0.0, "ratio"),
        "engine.base_dfs.calls": (tr.base.calls / np_, "count"),
        "engine.base_dfs.time_s": (tr.base.total_ns / 1e9 / np_, "s"),
        "engine.base_dfs.true_frac": (
            tr.base.trues / tr.base.calls if tr.base.calls else 0.0, "ratio"),
        "auxgraph.iter_candidates.calls": (tr.cand.calls / np_, "count"),
        "auxgraph.iter_candidates.yields": (tr.cand.trues / np_, "count"),
        "auxgraph.iter_candidates.self_s": (tr.cand.self_ns / 1e9 / np_, "s"),
        "auxgraph.iter_candidates.yields_per_call": (
            tr.cand.trues / tr.cand.calls if tr.cand.calls else 0.0, "ratio"),
        "grid.view_rows.calls": (tr.rows.calls / np_, "count"),
        "grid.view_rows.time_s": (tr.rows.total_ns / 1e9 / np_, "s"),
        "grid.gen_s": (gen_s, "s"),
        "grid.oracle_reach.p50_ms": (statistics.median(oracle_ms), "ms"),
        "metrics.charge.calls": (tr.charge.calls / np_, "count"),
        "metrics.charge.time_s": (tr.charge.total_ns / 1e9 / np_, "s"),
        "metrics.words_over_bound_frac": (words_over / len(answers), "ratio"),
        "metrics.calls_over_bound_frac": (calls_over / len(answers), "ratio"),
        "trace.overhead_ratio": (
            (traced.wall_s / traced.passes) / (untraced.wall_s / untraced.passes), "ratio"),
        "trace.accounted_frac": (tr.self_seconds() / traced.wall_s, "ratio"),
    }
    for d in range(MAX_DEPTH):
        k = tr.k_by_depth[d]
        out[f"engine.recursive_calls.d{d}"] = (rec[d] / np_, "count")
        out[f"engine.marker_dfs.calls.d{d}"] = (tr.marker[d].calls / np_, "count")
        out[f"engine.marker_dfs.self_s.d{d}"] = (tr.marker[d].self_ns / 1e9 / np_, "s")
        out[f"engine.edge_test.calls.d{d}"] = (tr.edge[d].calls / np_, "count")
        out[f"engine.edge_test.self_s.d{d}"] = (tr.edge[d].self_ns / 1e9 / np_, "s")
        out[f"engine.peak_stack.d{d}"] = (peak[d], "frames")
        # 2k+3 admits block-interior endpoints; 2k+1 holds when both lie on
        # gridlines.  0 where no marker_dfs ran at that depth.
        out[f"engine.peak_stack_limit.d{d}"] = (2 * k + 3 if k else 0, "frames")
    return out


def executed(results):
    """The answer of every execution that returned one."""
    return [a for _, a, r in results if not isinstance(a, Exception) for _ in range(r)]


def dispatch_only_frac(answers):
    """Share of answers that ran neither marker_dfs (which always pushes its
    source) nor base_dfs: dispatch, straight walk or prefilter decided them."""
    return sum(a.metrics.pushes == 0 and a.metrics.base_case_calls == 0
               for a in answers) / len(answers)


def run(workload, seed, seconds, trace, reach=None):
    """Run one workload; returns (result dict, info dict)."""
    w = WORKLOADS[workload] if isinstance(workload, str) else workload
    gr, graphs, queries, setup_s, gen_s = setup(w, seed)
    reach = reach or gr.reach
    cfg = gr.EngineConfig(epsilon=EPSILON)
    if trace:
        # Half the queries, so that a whole untraced and a whole traced pass
        # fit in the run even where one pass over all of them takes it all.
        half = queries[:(len(queries) + 1) // 2]
        untraced = run_batch(reach, cfg, graphs, half, seconds / 2, whole_passes=True)
        tr = Tracer(gr, reach)
        with tr:
            traced = run_batch(tr.reach, cfg, graphs, half, seconds / 2, whole_passes=True)
        results = untraced.results + traced.results
    else:
        batch = run_batch(reach, cfg, graphs, queries, seconds, visit_ns=VISIT_NS)
        results = batch.results
    failed, truth, oracle_ms = check(gr, w, seed, graphs, queries, results)
    attempted = sum(r for _, _, r in results)
    # One answer per query: a cheap query runs many times more often.
    answers = list({i: a for i, a, _ in results if not isinstance(a, Exception)}.values())
    if trace:
        metrics = per_layer(gr, w, tr, traced, untraced, gen_s, oracle_ms)
        wall = None
    else:
        metrics, wall = end_to_end(batch, setup_s)
    levels = max((len(a.metrics.recursive_calls_by_depth) for a in answers), default=0)
    info = {
        "workload": w.name, "seed": seed, "trace": int(bool(trace)),
        "fingerprint": fingerprint(graphs, queries),
        "queries": len(queries), "tail": f"p99 of {len(queries)} queries",
        "wall": wall,
        "yes_share": sum(truth) / len(truth),
        "dispatch_only_frac": dispatch_only_frac(answers) if answers else 0.0,
        "levels": levels,
        "failed_frac": failed / attempted,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_frac':40s} {info['failed_frac']:>16.6f} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
