"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The differential sweep
(criteria 1-3) runs its trials across a small process pool; every trial,
seed, and instance is deterministic.
"""

import json
import math
import multiprocessing as mp
from collections import Counter

import pytest

from gridreach import (
    AuxParams,
    EngineConfig,
    Metrics,
    SplitMix64,
    SubgridView,
    gen_family,
    gen_random,
    reach,
)
from gridreach.metrics import predicted_calls, predicted_words

from support import (
    BoundaryReachability,
    closure_bits,
    common_blocks,
    crossing_check,
    gridline_vertices,
    lattice_reach,
)

# Trials per (n, p, epsilon) bin; 36 bins, 44,088 trials in all, weighted
# towards small sides where trials are cheap.  The entry check answers many
# NO trials before any DFS, so there are enough of them that as many trials
# push a frame (12 738) and reach depth 2 (6 489) as the 20,040 did before
# it (11 835 and 4 249).
N_SIDES = (8, 12, 16, 24, 32, 48)
P_VALUES = (0.3, 0.5, 0.7)
EPS_VALUES = (0.5, 1.0)
TRIALS_PER_BIN = {8: 3080, 12: 2200, 16: 1320, 24: 440, 32: 176, 48: 132}
# The graph of each pair of trials, in turn, over sixteen pairs: one of each
# fixed family, then four gen_random graphs at the bin's p, twice, except
# that the first round spends the empty graph's pair on gen_random too.  On
# an empty graph the entry check answers every divided-level query, so no
# empty trial can push a frame; coming late in the cycle, it gets at most
# one pair in sixteen of a bin's part.
GRAPH_CYCLE = ("full", "random", "staircase", "single_path") + ("random",) * 4 + (
    "full", "empty", "staircase", "single_path") + ("random",) * 4

_WORKERS = 2


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criteria 1-3: differential sweep with traversal invariants

def _differential_bin(task):
    """Pairs of trials cycle through GRAPH_CYCLE.  Every odd trial draws its
    source in the south-west quadrant and its target in the north-east
    one, as `verify` does, so that half the trials run the marker DFS.  The
    expected verdict comes from lattice_reach on the box [s, t], which
    shares no view code with the engine.  Returns the totals, and per
    graph family the trials, those that push a frame and those that reach
    depth 2."""
    n, p, eps, seed, trials = task
    rng = SplitMix64(seed)
    cfg = EngineConfig(epsilon=eps)
    half = n // 2
    count = 0
    mismatches = []
    stack_viol = visit_viol = push_viol = words_over = 0
    tried, pushing, deep = Counter(), Counter(), Counter()
    for i in range(trials):
        family = GRAPH_CYCLE[i // 2 % len(GRAPH_CYCLE)]
        if family == "random":
            g = gen_random(n, p, p, rng.next_u64())
        else:
            g = gen_family(family, n)
        if i % 2:
            s = (rng.next_below(half), rng.next_below(half))
            t = (half + 1 + rng.next_below(n - half),
                 half + 1 + rng.next_below(n - half))
        else:
            s = (rng.next_below(n + 1), rng.next_below(n + 1))
            t = (rng.next_below(n + 1), rng.next_below(n + 1))
        expected = lattice_reach(g, (*s, *t), s, t)
        answer = reach(g, s, t, cfg)
        count += 1
        if answer.reachable != expected:
            mismatches.append((n, p, eps, s, t, answer.reachable, expected))
        m = answer.metrics
        stack_viol += m.stack_bound_violations
        visit_viol += m.visit_once_violations
        push_viol += m.push_bound_violations
        words_over += m.peak_tracked_words > predicted_words(n, m.k_top)
        tried[family] += 1
        pushing[family] += m.pushes > 0
        deep[family] += len(m.recursive_calls_by_depth) > 2
    return (count, mismatches, stack_viol, visit_viol, push_viol, words_over,
            (tried, pushing, deep))


@pytest.fixture(scope="module")
def differential_results():
    tasks = []
    for n in N_SIDES:
        for pi, p in enumerate(P_VALUES):
            for ei, eps in enumerate(EPS_VALUES):
                seed = 1_000_000 * n + 1000 * pi + ei
                trials = TRIALS_PER_BIN[n]
                # quarters, heavy bins first, so the pool stays balanced
                q = trials // 4
                parts = (q, q, q, trials - 3 * q)
                for part_i, part in enumerate(parts):
                    if part:
                        tasks.append((n, p, eps, seed + 7 * part_i, part))
    tasks.sort(key=lambda t: -(t[0] ** 2) * (2.0 - t[2]))
    with mp.Pool(_WORKERS) as pool:
        results = pool.map(_differential_bin, tasks, chunksize=1)
    total = sum(r[0] for r in results)
    mismatches = [m for r in results for m in r[1]]
    stack_viol = sum(r[2] for r in results)
    visit_viol = sum(r[3] for r in results)
    push_viol = sum(r[4] for r in results)
    words_over = sum(r[5] for r in results)
    coverage = [sum((r[6][j] for r in results), Counter()) for j in range(3)]
    return (total, mismatches, stack_viol, visit_viol, push_viol, words_over,
            coverage)


def test_criterion_1_differential_correctness(differential_results):
    total, mismatches, *_, (tried, pushing, deep) = differential_results
    ok = total >= 44_000 and not mismatches
    by_family = ", ".join(f"{f} {tried[f]}/{pushing[f]}/{deep[f]}"
                          for f in sorted(tried))
    _report(1, "differential correctness", ok,
            f"{total} trials against lattice_reach, {len(mismatches)} "
            f"disagreements; trials/push a frame/reach depth 2: {by_family}"
            + (f"; first: {mismatches[0]}" if mismatches else ""))
    assert total >= 44_000
    assert mismatches == []


def test_criterion_2_stack_bound(differential_results):
    total, _, stack_viol, *_ = differential_results
    ok = stack_viol == 0
    _report(2, "stack bound 2k+1 / 2k+3", ok,
            f"{stack_viol} violations across {total} trials at every level")
    assert stack_viol == 0


def test_criterion_3_visit_once(differential_results):
    total, _, _, visit_viol, push_viol, *_ = differential_results
    ok = visit_viol == 0 and push_viol == 0
    _report(3, "visit-once", ok,
            f"{visit_viol} pushes no marker admitted, {push_viol} push-bound "
            f"breaches across {total} trials")
    assert visit_viol == 0
    assert push_viol == 0


# ---------------------------------------------------------------------------
# criterion 4: boundary-graph equivalence

def _equivalence_chunk(task):
    seed, instances = task
    rng = SplitMix64(seed)
    p = AuxParams(16, 4)
    scope_pairs = 0
    disagreements = []
    vh = gridline_vertices(p)
    in_scope = []
    for u in vh:
        for v in vh:
            if u == v:
                continue
            share_line = (u[0] == v[0] and u[0] % p.b == 0) or (
                u[1] == v[1] and u[1] % p.b == 0)
            if share_line and common_blocks(p, u, v):
                continue  # same-line in-block pairs belong to the walk
            in_scope.append((u, v))
    for _ in range(instances):
        pr = P_VALUES[rng.next_below(3)]
        g = SubgridView.whole(gen_random(16, pr, pr, rng.next_u64()))
        hr = BoundaryReachability(p, g)
        _, rows = None, None
        index, rows = closure_bits(g)
        for u, v in in_scope:
            truth = (rows[index[u]] >> index[v]) & 1 == 1
            if hr.query(u, v) != truth:
                disagreements.append((u, v))
            scope_pairs += 1
    return scope_pairs, disagreements


def test_criterion_4_boundary_graph_equivalence():
    with mp.Pool(_WORKERS) as pool:
        results = pool.map(_equivalence_chunk, [(41, 100), (42, 100)])
    pairs = sum(r[0] for r in results)
    bad = [d for r in results for d in r[1]]
    ok = not bad
    _report(4, "boundary-graph equivalence", ok,
            f"200 instances at n=16 k=4, {pairs} pairs, {len(bad)} disagreements")
    assert bad == []


# ---------------------------------------------------------------------------
# criterion 5: crossing exchange

def _crossing_chunk(task):
    seed, blocks = task
    rng = SplitMix64(seed)
    checked = 0
    violations = []
    for i in range(blocks):
        pr = P_VALUES[i % 3]
        g = gen_random(8, pr, pr, rng.next_u64())
        c, bad = crossing_check(SubgridView.whole(g))
        checked += c
        violations.extend(bad)
    return checked, violations


def test_criterion_5_crossing_property():
    with mp.Pool(_WORKERS) as pool:
        results = pool.map(_crossing_chunk, [(51, 500), (52, 500)])
    checked = sum(r[0] for r in results)
    bad = [v for r in results for v in r[1]]
    ok = not bad
    _report(5, "crossing exchange", ok,
            f"1000 random blocks at b=8, {checked} interleaving quadruples, "
            f"{len(bad)} violations")
    assert bad == []


# ---------------------------------------------------------------------------
# criterion 6: straight-line walk

def _straight_chunk(task):
    seed, graphs, n = task
    rng = SplitMix64(seed)
    cfg = EngineConfig(epsilon=1.0)  # collinear pairs go to the straight walk
    pairs = 0
    disagreements = []
    for i in range(graphs):
        pr = P_VALUES[i % 3]
        g = gen_random(n, pr, pr, rng.next_u64())
        index, rows = closure_bits(SubgridView.whole(g))
        for x in range(n + 1):
            for y0 in range(n + 1):
                bits = rows[index[(x, y0)]]
                for y1 in range(n + 1):
                    truth = (bits >> index[(x, y1)]) & 1 == 1
                    if reach(g, (x, y0), (x, y1), cfg).reachable != truth:
                        disagreements.append(((x, y0), (x, y1)))
                    pairs += 1
        for y in range(n + 1):
            for x0 in range(n + 1):
                bits = rows[index[(x0, y)]]
                for x1 in range(n + 1):
                    truth = (bits >> index[(x1, y)]) & 1 == 1
                    if reach(g, (x0, y), (x1, y), cfg).reachable != truth:
                        disagreements.append(((x0, y), (x1, y)))
                    pairs += 1
    return pairs, disagreements


def test_criterion_6_straight_walk():
    with mp.Pool(_WORKERS) as pool:
        results = pool.map(_straight_chunk, [(61, 500, 8), (62, 500, 8)])
    pairs = sum(r[0] for r in results)
    bad = [d for r in results for d in r[1]]
    # O(1) tracked accounting: the walk charges the same constant at any side
    peaks = set()
    for n in (8, 64):
        g = gen_family("full", n)
        m = Metrics()
        reach(g, (0, 0), (0, n), EngineConfig(epsilon=1.0), m)
        reach(g, (0, 0), (n, 0), EngineConfig(epsilon=1.0), m)
        assert m.recursive_calls_by_depth == [2]  # both answered at depth 0
        peaks.add(m.peak_tracked_words)
        assert m.cur_tracked_words == 0
    constant = peaks == {Metrics.WALK_WORDS}
    ok = not bad and constant
    _report(6, "straight-line walk", ok,
            f"1000 graphs, {pairs} axis-aligned pairs, {len(bad)} disagreements; "
            f"tracked words constant at {sorted(peaks)}")
    assert bad == []
    assert constant


# ---------------------------------------------------------------------------
# criterion 7: recurrence conformance

def test_criterion_7_recurrence_conformance(differential_results):
    # the bounds are derived from the schedule and the charges: no fitting
    total, *_, words_over, _ = differential_results
    rows = []
    for n in (16, 64, 256):
        a = reach(gen_family("full", n), (0, 0), (n, n), EngineConfig(epsilon=1.0))
        m = a.metrics
        k = m.k_top
        assert k == round(math.sqrt(n))
        rows.append((n, k, m.recursive_calls, predicted_calls(n, k),
                     m.peak_tracked_words, predicted_words(n, k)))
    calls_ok = all(meas <= pred for _, _, meas, pred, _, _ in rows)
    words_ok = all(meas <= pred for _, _, _, _, meas, pred in rows)
    space_ratio = rows[2][4] / rows[0][4]
    sublinear = space_ratio < 16
    ok = calls_ok and words_ok and sublinear and words_over == 0
    detail = "; ".join(
        f"n={n}: calls {mc}<={pc:.0f}, words {mw}<={pw}"
        for n, _, mc, pc, mw, pw in rows)
    _report(7, "recurrence conformance", ok,
            f"{detail}; S(256)/S(16)={space_ratio:.2f}<16; "
            f"{words_over} of {total} trials over the word bound")
    assert calls_ok
    assert words_ok
    assert sublinear
    assert words_over == 0


# ---------------------------------------------------------------------------
# criterion 8: determinism of the query command

def test_criterion_8_query_determinism(tmp_path, capsys):
    from gridreach import emit_lgg
    from gridreach.cli import main

    path = tmp_path / "det.lgg"
    path.write_text(emit_lgg(gen_random(16, 0.5, 0.5, 20260810)))
    outputs = set()
    reps = 100
    for _ in range(reps):
        code = main(["query", "--graph", str(path), "--s", "1,0", "--t", "15,16",
                     "--epsilon", "0.5", "--metrics"])
        captured = capsys.readouterr().out
        assert code == 0
        verdict, metrics_line = captured.splitlines()
        fields = json.loads(metrics_line)
        fields.pop("wall_ms")
        outputs.add(verdict + "|" + json.dumps(fields, sort_keys=True))
    ok = len(outputs) == 1
    _report(8, "query determinism", ok,
            f"{reps} repetitions, {len(outputs)} distinct outputs "
            f"(wall_ms excluded)")
    assert len(outputs) == 1
