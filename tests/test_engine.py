import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridreach import (
    AuxParams,
    EngineConfig,
    LayeredGridGraph,
    Metrics,
    SplitMix64,
    SubgridView,
    marker_dfs,
    base_dfs,
    choose_k,
    gen_family,
    gen_random,
    oracle_reach,
    predicted_words,
    reach,
)
from gridreach import engine, grid
from gridreach.auxgraph import (box_gridlines, decompose, is_base_side, is_gridline_vertex,
                                iter_candidates, ne_corner)
from gridreach.engine import _schedule
from gridreach.metrics import base_charge, level_charge

from support import (PushLog, box_candidates, common_blocks, gridline_vertices, is_edge,
                     lattice_reach, reference_enters, reference_marker_dfs, reference_run,
                     view_chain, watch_windows)


def whole(g):
    return SubgridView.whole(g)


def assert_no_violations(m):
    assert (m.stack_bound_violations, m.visit_once_violations,
            m.push_bound_violations) == (0, 0, 0)


# ---------------------------------------------------------------------------
# configuration

def test_choose_k():
    assert choose_k(10000, 1.0) == 100
    assert choose_k(4, 0.1) == 2       # clamped up
    assert choose_k(16, 1.0) == 4
    assert choose_k(2, 1.0) == 2
    assert choose_k(48, 0.5) == 3
    with pytest.raises(ValueError):
        choose_k(16, 0.0)
    with pytest.raises(ValueError):
        choose_k(16, 1.5)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig()                      # neither epsilon nor k
    with pytest.raises(ValueError):
        EngineConfig(epsilon=0.5, k=3)      # both
    with pytest.raises(ValueError):
        EngineConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        EngineConfig(k=1)


# ---------------------------------------------------------------------------
# base case

def test_base_dfs_trivia():
    g = whole(gen_family("full", 2))
    assert base_dfs(g, (0, 0), (2, 2), Metrics())
    assert not base_dfs(whole(gen_family("empty", 2)), (0, 0), (1, 1), Metrics())
    assert base_dfs(whole(gen_family("empty", 2)), (1, 1), (1, 1), Metrics())


def test_base_dfs_matches_oracle():
    rng = SplitMix64(11)
    box = (0, 0, 4, 4)
    for _ in range(60):
        g = gen_random(4, 0.5, 0.5, rng.next_u64())
        for _ in range(8):
            s = (rng.next_below(5), rng.next_below(5))
            t = (rng.next_below(5), rng.next_below(5))
            assert base_dfs(whole(g), s, t, Metrics()) == lattice_reach(g, box, s, t)
    stair = gen_family("staircase", 4)
    assert base_dfs(whole(stair), (0, 0), (4, 4), Metrics()) == lattice_reach(
        stair, box, (0, 0), (4, 4))


def test_base_dfs_charges_one_reach_mask():
    """ceil((side+1) / ceil(log2(n+1))) words for the mask, plus 4 locals."""
    for view, words in ((whole(gen_family("full", 4)), 6),
                        (whole(gen_family("full", 16)).sub(4, 8, 4), 5)):
        m = Metrics()
        assert base_dfs(view, (0, 0), (4, 4), m)
        assert m.peak_tracked_words == words
        assert m.cur_tracked_words == 0
        assert m.base_case_calls == 1


# ---------------------------------------------------------------------------
# block geometry

@pytest.mark.parametrize("p", [AuxParams(9, 3), AuxParams(12, 4)])
def test_block_rule_matches_reference(p):
    """ne_corner(p, a)'s block holds c exactly when a and c share a block,
    and then it is one of the blocks they share."""
    pts = [(x, y) for y in range(p.n + 1) for x in range(p.n + 1)]
    for a in pts:
        x1, y1 = ne_corner(p, a)
        block = (x1 // p.b - 1, y1 // p.b - 1)
        for c in pts:
            if c[0] < a[0] or c[1] < a[1]:
                continue
            blocks = common_blocks(p, a, c)
            holds = c[0] <= x1 and c[1] <= y1
            assert holds == bool(blocks), (a, c)
            if holds:
                assert block in blocks, (a, c)
            if a[0] != c[0] and a[1] != c[1]:
                assert len(blocks) <= 1, (a, c)


# ---------------------------------------------------------------------------
# the marker traversal on a supplied edge oracle

def _edge_oracle_from(g, p):
    return lambda curr, w: is_edge(p, g, curr, w)


def test_algo_lggr_full_and_empty():
    """At b = k the DFS decides every pair in a frame's block itself,
    reading the candidates strictly north-east of the frame's vertex off
    row sweeps, so the supplied oracle is never asked about them; at b > k
    it decides each of them."""
    for p in (AuxParams(9, 3), AuxParams(12, 3)):
        n = p.n
        asked = []
        for family, want in (("full", True), ("empty", False)):
            g = whole(gen_family(family, n))
            oracle = _edge_oracle_from(g, p)

            def edge_test(curr, w):
                asked.append((curr, w))
                return oracle(curr, w)

            assert marker_dfs(p, g, (0, 0), (n, n), edge_test, Metrics()) == want
        inside = [w for c, w in asked if w != (n, n) and w[0] > c[0] and w[1] > c[1]]
        assert bool(inside) == (p.b > p.k), p


def _aug_edge_oracle(p, g, u, v):
    """The engine's edge semantics for a (u, v) query: the plain rule plus
    same-line corner hops at the two endpoints, decided by the oracle."""
    from support import block_reach, common_blocks

    def fn(curr, w):
        if w[0] < curr[0] or w[1] < curr[1] or w == curr:
            return False
        if not _aug_line_filter(p.b, u, v, curr, w):
            return False
        return any(block_reach(p, g, blk, curr, w)
                   for blk in common_blocks(p, curr, w))

    return fn


def _aug_line_filter(b, u, v, curr, w):
    """The gridline filter of _aug_edge_oracle: a pair on one gridline is
    joined only corner to corner, from the source to a corner, or from a
    corner to the target."""
    same_line = (w[0] == curr[0] and curr[0] % b == 0) or (
        w[1] == curr[1] and curr[1] % b == 0)
    if not same_line:
        return True
    w_corner = w[0] % b == 0 and w[1] % b == 0
    c_corner = curr[0] % b == 0 and curr[1] % b == 0
    return (c_corner and w_corner) or (curr == u and w_corner) or (w == v and c_corner)


def test_algo_lggr_differential_boundary_pairs():
    """Gridline-to-gridline queries in general position agree with the
    oracle when the traversal runs on the endpoint-augmented edge oracle
    (pairs sharing a line or block are served by other dispatch arms and
    excluded here)."""
    from support import common_blocks, gridline_vertices

    rng = SplitMix64(23)
    p = AuxParams(12, 3)
    checked = 0
    for _ in range(25):
        g = whole(gen_random(12, 0.5, 0.5, rng.next_u64()))
        vh = gridline_vertices(p)
        for _ in range(30):
            u = vh[rng.next_below(len(vh))]
            v = vh[rng.next_below(len(vh))]
            if u == v:
                continue
            share_line = (u[0] == v[0] and u[0] % p.b == 0) or (
                u[1] == v[1] and u[1] % p.b == 0)
            if share_line or common_blocks(p, u, v):
                continue
            m = Metrics()
            got = marker_dfs(p, g, u, v, _aug_edge_oracle(p, g, u, v), m)
            assert got == oracle_reach(g, u, v), (u, v)
            assert_no_violations(m)
            checked += 1
    assert checked > 100


def test_target_found_even_when_markers_point_past_it():
    """A target sitting below an already-advanced marker must still be
    recognized: each frame's run asks for the edge into it first, and no
    marker is consulted for that test."""
    north = [0] * 10
    east = [0] * 10
    for x in range(3):
        east[0] |= 1 << x          # bottom row to (3,0)
    for y in range(3):
        north[y] |= 1 << 3         # column x=3 up to (3,3)
    g = LayeredGridGraph(9, north, east)
    for eps in (0.5, 1.0):
        a = reach(g, (0, 0), (3, 1), EngineConfig(epsilon=eps))
        assert a.reachable
        assert_no_violations(a.metrics)


# ---------------------------------------------------------------------------
# recursion driver

def test_reach_dispatch_trivia():
    g = gen_random(12, 0.5, 0.5, 3)
    cfg = EngineConfig(epsilon=1.0)
    assert reach(g, (5, 5), (5, 5), cfg).reachable
    assert not reach(g, (5, 5), (3, 9), cfg).reachable
    assert not reach(g, (5, 5), (5, 4), cfg).reachable


def test_reach_full_and_empty():
    cfg = EngineConfig(epsilon=1.0)
    assert reach(gen_family("full", 9), (0, 0), (9, 9), cfg).reachable
    assert not reach(gen_family("empty", 9), (0, 0), (9, 9), cfg).reachable


def test_reach_rejects_out_of_range():
    g = gen_family("full", 4)
    with pytest.raises(ValueError, match="target"):
        reach(g, (0, 0), (5, 5), EngineConfig(epsilon=1.0))
    with pytest.raises(ValueError, match="source"):
        reach(g, (0, 5), (4, 4), EngineConfig(epsilon=1.0))


def test_reach_fills_the_given_metrics():
    """reach fills in the Metrics it is given, a subclass included, exactly
    as it fills a fresh one."""
    g = gen_random(16, 0.7, 0.7, 5)
    cfg = EngineConfig(epsilon=1.0)
    a = reach(g, (1, 2), (13, 14), cfg)
    m = PushLog()
    b = reach(g, (1, 2), (13, 14), cfg, m)
    assert b.metrics is m and b.reachable == a.reachable
    assert len(m.log) == m.pushes > 0
    for slot in Metrics.__slots__:
        assert getattr(m, slot) == getattr(a.metrics, slot), slot


def test_reach_searches_the_graphs_one_whole_view(monkeypatch):
    """reach hands the recursion the view the graph made, not a new one."""
    g = gen_random(16, 0.7, 0.7, 5)
    seen = []
    real = engine._reach

    def spy(view, u, v, m, levels, depth):
        if depth == 0:
            seen.append(view)
        return real(view, u, v, m, levels, depth)

    monkeypatch.setattr(engine, "_reach", spy)
    for t in ((13, 14), (9, 3)):
        reach(g, (1, 2), t, EngineConfig(epsilon=1.0))
    assert len(seen) == 2 and all(v is whole(g) for v in seen)


class _CallLog(Metrics):
    """Metrics that count the calls note_call records, by depth."""

    __slots__ = ("noted",)

    def __init__(self):
        super().__init__()
        self.noted = []

    def note_call(self, depth):
        self.noted.append(depth)
        super().note_call(depth)


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_calls_are_counted_in_place_by_depth(monkeypatch, eps):
    """_reach counts its own call in place: recursive_calls_by_depth holds,
    per depth, the _reach calls plus the straight walks and frame sweeps
    note_call records, and never a zero before its last entry.  A Metrics
    reused for two queries holds the sum of theirs."""
    real = engine._reach
    calls = []

    def spy(view, u, v, m, levels, depth):
        calls.append(depth)
        return real(view, u, v, m, levels, depth)

    monkeypatch.setattr(engine, "_reach", spy)

    def expected(noted):
        by_depth = [0] * (max(calls + noted) + 1)
        for d in calls + noted:
            by_depth[d] += 1
        return by_depth

    cfg = EngineConfig(epsilon=eps)
    rng = SplitMix64(2100 + int(10 * eps))
    deep = 0
    for n in (16, 24, 32):
        for _ in range(8):
            g = gen_random(n, 0.7, 0.7, rng.next_u64())
            pair = []
            for _ in range(2):
                s = (rng.next_below(n // 2 + 1), rng.next_below(n // 2 + 1))
                t = (n // 2 + rng.next_below(n - n // 2 + 1),
                     n // 2 + rng.next_below(n - n // 2 + 1))
                pair.append((s, t))
            each = []
            for s, t in pair:
                calls.clear()
                m = _CallLog()
                reach(g, s, t, cfg, m)
                rd = m.recursive_calls_by_depth
                assert rd == expected(m.noted), (n, s, t)
                assert 0 not in rd[:-1], (n, s, t, rd)
                deep += len(rd) > 1
                each.append(rd)
            calls.clear()
            m = _CallLog()
            for s, t in pair:  # one caller-supplied Metrics, two queries
                reach(g, s, t, cfg, m)
            rd = m.recursive_calls_by_depth
            assert rd == expected(m.noted)
            assert 0 not in rd[:-1], (n, pair, rd)
            width = max(map(len, each))
            assert rd == [sum(r[d] for r in each if d < len(r)) for d in range(width)]
    assert deep > 10


def _reach_view(view, s, t, cfg, m):
    """The recursion on a view, as reach runs it on the whole one."""
    levels = engine._schedule(view.side, cfg.epsilon, cfg.k)[1]
    return engine._reach(view, s, t, m, levels, 0)


def test_recursion_on_views():
    g = gen_random(16, 0.6, 0.6, 9)
    v = SubgridView.whole(g).sub(4, 4, 8)
    cfg = EngineConfig(epsilon=1.0)
    rng = SplitMix64(31)
    for _ in range(40):
        s = (rng.next_below(9), rng.next_below(9))
        t = (rng.next_below(9), rng.next_below(9))
        assert _reach_view(v, s, t, cfg, Metrics()) == oracle_reach(v, s, t)


def test_gridline_crawl_instances():
    """Paths that crawl along a gridline through a block crossing; these
    need the endpoint augmentation and are invisible to the plain edge
    rule."""
    north = [0] * 10
    east = [0] * 10
    for x in range(1, 5):
        east[0] |= 1 << x          # (1,0) -> ... -> (5,0)
    for y in range(3):
        north[y] |= 1 << 5         # (5,0) -> (5,1) -> (5,2) -> (5,3)
    g = LayeredGridGraph(9, north, east)
    v = SubgridView.whole(g)
    for s, t in [((1, 0), (5, 3)), ((1, 0), (5, 0)), ((2, 0), (5, 3)),
                 ((1, 0), (4, 2)), ((0, 0), (5, 3))]:
        expect = oracle_reach(v, s, t)
        for eps in (0.5, 1.0):
            a = reach(g, s, t, EngineConfig(epsilon=eps))
            assert a.reachable == expect, (s, t, eps)
            assert_no_violations(a.metrics)


def test_differential_random_sweep():
    rng = SplitMix64(101)
    for n in (8, 12, 16, 24):
        for eps in (0.5, 1.0):
            for trial in range(25):
                p = (0.3, 0.5, 0.7)[trial % 3]
                g = gen_random(n, p, p, rng.next_u64())
                s = (rng.next_below(n + 1), rng.next_below(n + 1))
                t = (rng.next_below(n + 1), rng.next_below(n + 1))
                a = reach(g, s, t, EngineConfig(epsilon=eps))
                assert a.reachable == oracle_reach(whole(g), s, t), (n, eps, s, t)
                assert_no_violations(a.metrics)


@st.composite
def view_queries(draw):
    """A small graph, a chain of sub views of it (support.view_chain,
    padding ones among them), the box of base coordinates the chain shows,
    two endpoints anywhere in the last view (half the time the target
    north-east of the source), and either an epsilon or a fixed k."""
    n = draw(st.integers(min_value=2, max_value=12))
    density = draw(st.floats(min_value=0.3, max_value=1.0))
    g = gen_random(n, density, density, draw(st.integers(0, 2**64 - 1)))

    def pick(lo, hi):
        return draw(st.integers(lo, hi))

    view, (ox, oy), box = view_chain(g, pick(0, 3), pick)
    coord = st.integers(0, view.side)
    s = (draw(coord), draw(coord))
    if draw(st.booleans()):
        t = (draw(coord), draw(coord))
    else:  # strictly north-east of s where it fits: the searches run there
        t = (draw(st.integers(min(s[0] + 1, view.side), view.side)),
             draw(st.integers(min(s[1] + 1, view.side), view.side)))
    cfg = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(
            lambda eps: EngineConfig(epsilon=eps)),
        st.integers(2, n).map(lambda k: EngineConfig(k=k))))
    return g, view, (ox, oy), box, s, t, cfg


@given(view_queries())
@settings(max_examples=400, deadline=None)
def test_differential_view_chains(query):
    """The recursion on any view chain agrees with a DFS over the base
    graph clipped to the box the chain shows, and trips no invariant."""
    g, view, (ox, oy), box, s, t, cfg = query
    m = Metrics()
    got = _reach_view(view, s, t, cfg, m)
    assert got == lattice_reach(g, box, (ox + s[0], oy + s[1]),
                                (ox + t[0], oy + t[1]))
    assert_no_violations(m)


def test_entry_check_matches_the_reference():
    """engine._enters, the entry check of a divided level, on graphs of n
    8-24 under k 2-4, on view chains (padded ones among them), against
    support.reference_enters: it returns False exactly where no vertex of
    the west column or the south row of v's south-west-most block, inside
    [u, v], reaches v within that block.  Targets lie on a vertical
    gridline, on a horizontal one, on a corner and inside a block; sources
    lie where both entries count, and where one does because u.x >= x0 or
    u.y >= y0; each of these, and a padded view, sees both answers.  A
    source outside the block never shares one with v, and each check
    counts one base case, holds base_charge(b, n) words and makes no
    call."""
    rng = SplitMix64(2020)

    def pick(lo, hi):
        return lo + rng.next_below(hi - lo + 1)

    cases = set()
    checked = 0
    for trial in range(400):
        q = (0.4, 0.6, 0.8)[trial % 3]
        g = gen_random(pick(8, 24), q, q, rng.next_u64())
        view, origin, box = view_chain(g, pick(0, 2), pick)
        side = view.side
        k = pick(2, 4)
        if is_base_side(side, k):
            continue
        p = decompose(side, k)[0]
        b = p.b
        padded = side < p.n or view.wx < side or view.wy < side
        for kind, entries in itertools.product(
                ("vertical", "horizontal", "corner", "interior"),
                ("both", "south", "west")):
            vx, vy = pick(1, side), pick(1, side)  # snapped onto, or off, a gridline
            if kind in ("vertical", "corner"):
                vx = max(vx // b * b, b)
            else:
                vx -= vx % b == 0
            if kind in ("horizontal", "corner"):
                vy = max(vy // b * b, b)
            else:
                vy -= vy % b == 0
            x0 = (vx - 1) // b * b
            y0 = (vy - 1) // b * b
            xs = (0, x0 - 1) if entries in ("both", "west") else (x0, vx - 1)
            ys = (0, y0 - 1) if entries in ("both", "south") else (y0, vy - 1)
            if xs[0] > xs[1] or ys[0] > ys[1]:
                continue
            u = (pick(*xs), pick(*ys))
            x1, y1 = ne_corner(p, u)
            assert not (vx <= x1 and vy <= y1), (side, b, u, (vx, vy))
            m = Metrics()
            got = engine._enters(view, b, *u, vx, vy, m)
            assert got == reference_enters(g, origin, box, b, u, (vx, vy)), (
                view, b, u, (vx, vy))
            assert (m.base_case_calls, m.recursive_calls_by_depth, m.cur_tracked_words,
                    m.peak_tracked_words) == (1, [], 0, base_charge(b, g.n))
            cases |= {(kind, got), (entries, got), ("padded", got) if padded else None}
            checked += 1
    assert checked > 1200
    assert cases - {None} == {(c, got) for got in (False, True) for c in (
        "vertical", "horizontal", "corner", "interior", "both", "south", "west", "padded")}


class _LiveLevels(Metrics):
    """Metrics that keep, per live marker DFS, [depth, level words, live
    frames] in ``levels``, innermost last.  The searches are entered and
    left by a spy on engine.marker_dfs; a push or pop belongs to the
    innermost one."""

    __slots__ = ("levels",)

    def __init__(self):
        super().__init__()
        self.levels = []

    def note_push(self, depth, w, frames):
        assert self.levels[-1][0] == depth
        self.levels[-1][2] = frames
        super().note_push(depth, w, frames)

    def note_pop(self):
        self.levels[-1][2] -= 1
        super().note_pop()


@pytest.mark.parametrize("n, cfg", [(16, EngineConfig(epsilon=0.5)), (12, EngineConfig(k=3)),
                                    (32, EngineConfig(k=2))])
def test_entry_check_holds_its_mask_under_the_levels_above(monkeypatch, n, cfg):
    """Each entry check runs under the divided levels above its query
    alone: the tracked words at its start are those levels' charges, each
    one's level_charge for its box's markers plus its live frames, with
    nothing of its own level's.  It raises the peak by exactly one base
    case on its level's block side, base_charge(b, n), and leaves the
    tracked words as it found them.  That is the hold the word bound's
    entry term covers, at every depth the schedule divides."""
    real_reach, real_dfs, real_enters = engine._reach, engine.marker_dfs, engine._enters
    depths = []  # the depths of the live block queries, innermost last
    checks = []

    def reach_spy(view, u, v, m, levels, depth):
        depths.append(depth)
        try:
            return real_reach(view, u, v, m, levels, depth)
        finally:
            depths.pop()

    def dfs_spy(p, g, u, v, edge_test, m, depth=0):
        _, nx, _, ny = box_gridlines(p, u, v)
        m.levels.append([depth, level_charge(nx + ny), 0])
        try:
            return real_dfs(p, g, u, v, edge_test, m, depth)
        finally:
            m.levels.pop()

    def enters_spy(view, b, ux, uy, vx, vy, m):
        depth = depths[-1]
        above = sum(words + Metrics.FRAME_WORDS * frames
                    for d, words, frames in m.levels if d < depth)
        entry, peak = m.cur_tracked_words, m.peak_tracked_words
        assert entry == above, (depth, m.levels)
        m.peak_tracked_words = entry  # the check's own hold sets the peak
        got = real_enters(view, b, ux, uy, vx, vy, m)
        assert m.peak_tracked_words - entry == base_charge(b, view.base.n), (depth, b)
        assert m.cur_tracked_words == entry
        m.peak_tracked_words = max(peak, m.peak_tracked_words)
        checks.append((depth, above > 0, got))
        return got

    monkeypatch.setattr(engine, "_reach", reach_spy)
    monkeypatch.setattr(engine, "marker_dfs", dfs_spy)
    monkeypatch.setattr(engine, "_enters", enters_spy)
    rng = SplitMix64(2424 + n)
    h = n // 2
    for _ in range(6):
        g = gen_random(n, 0.7, 0.7, rng.next_u64())
        s = (rng.next_below(h), rng.next_below(h))
        t = (h + rng.next_below(h + 1), h + rng.next_below(h + 1))
        m = _LiveLevels()
        a = reach(g, s, t, cfg, m)
        assert a.reachable == oracle_reach(whole(g), s, t)
        assert m.cur_tracked_words == 0 and m.levels == []
        assert m.peak_tracked_words <= predicted_words(n, m.k_top)
    divided = len(_schedule(n, cfg.epsilon, cfg.k)[1]) - 1
    # Every divided level checks, and below the top level both answers
    # occur under the levels above.
    assert {d for d, *_ in checks} == set(range(divided)), checks
    assert {got for d, under, got in checks if under} == {False, True}


@pytest.mark.parametrize("n, cfg", [(24, EngineConfig(epsilon=1.0)), (10, EngineConfig(k=4)),
                                    (13, EngineConfig(k=3)), (512, EngineConfig(epsilon=1.0))])
def test_cut_views_keep_the_window_invariant(monkeypatch, n, cfg):
    """On schedules that pad (the top level divides a side of p.n > n),
    every view the engine cuts keeps SubgridView's window invariant
    (support.window_holds), on which its row reads rely to stay inside the
    base graph; where a level below the top pads, its block queries cut
    views past the content window.  A frame cuts no view: it reads its
    block from the level's view, whose row reads stop at that view's
    window.  Some frames' blocks run past the window, and the queries that
    push such a frame answer as the oracle does."""
    assert _schedule(n, cfg.epsilon, cfg.k)[1][0].n > n
    seen = watch_windows(monkeypatch)
    real_run = engine._run
    past = []  # the frames whose block runs past the level's window

    def run_spy(p, g, curr, *rest):
        x1, y1 = ne_corner(p, curr)
        if x1 > g.wx or y1 > g.wy:
            past.append((p.n, g.side, curr))
        return real_run(p, g, curr, *rest)

    monkeypatch.setattr(engine, "_run", run_spy)
    rng = SplitMix64(1300 + n)
    half = n // 2
    padded = 0  # queries with a frame past the window
    for _ in range(3 if n < 100 else 1):  # a side-512 graph takes 0.5 s to draw
        g = gen_random(n, 0.7, 0.7, rng.next_u64())
        for _ in range(8):
            s = (rng.next_below(half), rng.next_below(half))
            t = (n - rng.next_below(3), n - rng.next_below(3))
            past.clear()
            a = reach(g, s, t, cfg)
            assert a.reachable == oracle_reach(whole(g), s, t), (s, t)
            padded += bool(past)
    assert padded > 0
    if len(_schedule(n, cfg.epsilon, cfg.k)[1]) > 2:  # a padded level below the top
        assert any(v.oy + v.side > n for v in seen)  # cuts block queries past it


def test_fixed_k_schedule():
    rng = SplitMix64(202)
    for trial in range(30):
        g = gen_random(16, 0.5, 0.5, rng.next_u64())
        s = (rng.next_below(17), rng.next_below(17))
        t = (rng.next_below(17), rng.next_below(17))
        a = reach(g, s, t, EngineConfig(k=4))
        assert a.metrics.k_top == 4
        assert a.reachable == oracle_reach(whole(g), s, t)


def _fixed_k_depth(n, k):
    """Levels of the fixed-k recursion: a side above k is padded to a
    multiple of k and its blocks have side ceil(side / k)."""
    depth, side = 1, n
    while side > k:
        side = -(-side // k)
        depth += 1
    return depth


def _check_schedule(n, cfg, k):
    got_k, levels = _schedule(n, cfg.epsilon, cfg.k)
    assert got_k == k, (n, cfg)
    assert len(levels) == _fixed_k_depth(n, k), (n, cfg)
    assert levels[-1] is None
    side = n
    for p in levels[:-1]:
        assert p.k == k and p.n % k == 0 and p.n >= side > k, (n, cfg, p)
        side = p.b
    assert side <= k


def test_schedule_levels():
    for n in range(2, 601):
        for k in range(2, 31):
            _check_schedule(n, EngineConfig(k=k), min(k, n))
        for eps in (0.5, 1.0):
            _check_schedule(n, EngineConfig(epsilon=eps), choose_k(n, eps))


@pytest.fixture(scope="module")
def schedule_sweep():
    """Seeded (n, eps, graph, s, t, epsilon-mode answer), shared by the two
    schedule tests: per graph one uniform pair and one with the source in
    the south-west quadrant and the target in the north-east one."""
    rng = SplitMix64(404)
    rows = []
    for n in (8, 12, 16, 24, 32, 48):
        half = n // 2
        for p in (0.3, 0.5, 0.7):
            g = gen_random(n, p, p, rng.next_u64())
            pairs = [((rng.next_below(n + 1), rng.next_below(n + 1)),
                      (rng.next_below(n + 1), rng.next_below(n + 1))),
                     ((rng.next_below(half), rng.next_below(half)),
                      (half + 1 + rng.next_below(n - half),
                       half + 1 + rng.next_below(n - half)))]
            for s, t in pairs:
                for eps in (0.5, 1.0):
                    rows.append((n, eps, g, s, t,
                                 reach(g, s, t, EngineConfig(epsilon=eps))))
    return rows


def test_epsilon_schedule_is_fixed_k_at_the_top_divisor(schedule_sweep):
    """epsilon mode keeps the top level's k at every level: it matches the
    fixed-k mode at k = choose_k(n, eps) in the verdict and every counter."""
    for n, eps, g, s, t, a in schedule_sweep:
        f = reach(g, s, t, EngineConfig(k=choose_k(n, eps)))
        assert a.reachable == f.reachable, (n, eps, s, t)
        for slot in Metrics.__slots__:
            assert getattr(a.metrics, slot) == getattr(f.metrics, slot), (
                slot, n, eps, s, t)


def test_epsilon_schedule_runs_no_extra_levels(schedule_sweep):
    for n, eps, g, s, t, a in schedule_sweep:
        levels = _fixed_k_depth(n, choose_k(n, eps))
        assert len(a.metrics.recursive_calls_by_depth) <= levels, (n, eps, s, t)


# ---------------------------------------------------------------------------
# traversal invariants

def test_invariants_across_random_sweep():
    rng = SplitMix64(77)
    for n in (8, 12, 16):
        for trial in range(30):
            p = (0.3, 0.5, 0.7)[trial % 3]
            g = gen_random(n, p, p, rng.next_u64())
            s = (rng.next_below(n + 1), rng.next_below(n + 1))
            t = (rng.next_below(n + 1), rng.next_below(n + 1))
            a = reach(g, s, t, EngineConfig(epsilon=0.5))
            m = a.metrics
            assert_no_violations(m)
            assert m.pops <= m.pushes


def test_every_pushed_vertex_is_reachable_from_source():
    """Soundness: the traversal only ever stands on vertices the source
    reaches (checked against the oracle at the top level)."""
    rng = SplitMix64(88)
    for trial in range(15):
        g = gen_random(12, 0.5, 0.5, rng.next_u64())
        s = (rng.next_below(13), rng.next_below(13))
        t = (rng.next_below(13), rng.next_below(13))
        m = PushLog()
        reach(g, s, t, EngineConfig(epsilon=1.0), m)
        for depth, w in m.log:
            if depth == 0:
                assert oracle_reach(whole(g), s, w), (s, w)


def test_search_ends_at_the_first_push_with_an_edge_to_the_target(monkeypatch):
    """Each frame's run decides the edge into the target first, so a YES
    query decided by the depth-0 traversal stops at the first pushed vertex
    with an edge into the target: that edge is true from the last depth-0
    push and false from every earlier one.  Checked with the reference
    edge rule (_aug_edge_oracle), not the engine's edge test, which the
    last divided level (all of epsilon=1.0 here) never asks."""
    real = engine.marker_dfs
    captured = []

    def spy(p, g, u, v, edge_test, metrics=None, depth=0, **kw):
        if depth == 0:
            captured.append(_aug_edge_oracle(p, g, u, v))
        return real(p, g, u, v, edge_test, metrics, depth, **kw)

    monkeypatch.setattr(engine, "marker_dfs", spy)
    rng = SplitMix64(515)
    checked = 0
    for eps in (0.5, 1.0):
        for n in (8, 12, 16):
            half = n // 2
            for _ in range(20):
                g = gen_random(n, 0.7, 0.7, rng.next_u64())
                s = (rng.next_below(half), rng.next_below(half))
                t = (half + 1 + rng.next_below(n - half),
                     half + 1 + rng.next_below(n - half))
                m = PushLog()
                captured.clear()
                if not reach(g, s, t, EngineConfig(epsilon=eps), m).reachable:
                    continue
                if not captured:
                    continue  # decided before the depth-0 traversal
                oracle, = captured
                pushes = [w for depth, w in m.log if depth == 0]
                hits = [w[0] <= t[0] and w[1] <= t[1] and oracle(w, t)
                        for w in pushes]
                assert hits == [False] * (len(pushes) - 1) + [True], (eps, n, s, t)
                checked += 1
    assert checked >= 40


class _BoxLog(PushLog):
    """A PushLog that also notes every push, at any depth, that leaves the
    box [u, v] of the marker DFS making it; boxes[depth] holds that DFS's
    (u, v), set by a spy on marker_dfs."""

    __slots__ = ("boxes", "outside")

    def __init__(self):
        super().__init__()
        self.boxes = {}
        self.outside = []

    def note_push(self, depth, w, frames):
        u, v = self.boxes[depth]
        if not (u[0] <= w[0] <= v[0] and u[1] <= w[1] <= v[1]):
            self.outside.append((depth, u, v, w))
        super().note_push(depth, w, frames)


# (n, cfg, targets): with the top level's block side b, a target on a
# vertical gridline, one on a horizontal gridline, one on a block corner and
# one inside a block.
BOX_CASES = [
    (16, EngineConfig(epsilon=1.0), [(12, 14), (14, 12), (12, 12), (13, 14)]),  # b=4
    (16, EngineConfig(k=2), [(8, 14), (14, 8), (8, 8), (13, 14)]),  # b=8, 3 levels
    (18, EngineConfig(k=3), [(12, 16), (16, 12), (12, 12), (14, 16)]),  # b=6, 2 levels
]


@pytest.mark.parametrize("n, cfg, targets", BOX_CASES)
def test_search_stays_in_the_targets_box(monkeypatch, n, cfg, targets):
    """No frame leaves its target's box: every vertex pushed at depth 0 lies
    in [s, t], every vertex a deeper marker DFS pushes lies in the box of
    that DFS's own endpoints, and every verdict equals lattice_reach."""
    real = engine.marker_dfs

    def spy(p, g, u, v, edge_test, metrics=None, depth=0):
        metrics.boxes[depth] = (u, v)
        return real(p, g, u, v, edge_test, metrics, depth)

    monkeypatch.setattr(engine, "marker_dfs", spy)
    rng = SplitMix64(1500 + n)
    half = n // 2
    divided = len(_schedule(n, cfg.epsilon, cfg.k)[1]) - 1
    searched = deep = 0
    for t in targets:
        for trial in range(30):
            q = (0.5, 0.6, 0.7)[trial % 3]
            g = gen_random(n, q, q, rng.next_u64())
            s = (rng.next_below(half), rng.next_below(half))
            m = _BoxLog()
            got = reach(g, s, t, cfg, m).reachable
            assert got == lattice_reach(g, (0, 0, n, n), s, t), (n, cfg, s, t)
            top = [w for depth, w in m.log if depth == 0]
            assert all(s[0] <= x <= t[0] and s[1] <= y <= t[1] for x, y in top), (s, t)
            assert not m.outside, (s, t, m.outside[:3])
            assert_no_violations(m)
            searched += bool(top)
            deep += len(m.log) > len(top)
    assert searched >= 20
    assert deep >= 10 or divided == 1


def test_frame_sweep_answers_like_the_edge_rule(monkeypatch):
    """Where the next level is the base case, the engine's marker DFS hands
    its frames (_run) no edge test, so that they read their candidates off
    frame sweeps, and above it the edge test, which tests them: marker_dfs
    tells the two apart by auxgraph.is_base_side(p.b, p.k), which holds
    exactly where the schedule's next level is the base case.  With no
    marker set, the swept run from every gridline vertex (and from the
    source) on the engine's own view yields exactly the target, if the
    edge rule plus the endpoint augmentation (_aug_edge_oracle) joins it to
    the vertex, then the candidates in the target's box
    (support.box_candidates) that rule joins to it, in run order.  It asks
    no edge test, deciding the target and the two candidates on the
    vertex's row and column itself at one edge query each, opens at most
    one sweep per visit besides the target's, and holds no sweep words at
    a yield."""
    real = engine.marker_dfs
    real_run = engine._run
    captured = []
    frames = []  # (the frame's depth, whether it sweeps), one per push

    def spy(p, g, u, v, edge_test, metrics=None, depth=0):
        captured.append((p, g, u, v, edge_test, metrics, depth))
        return real(p, g, u, v, edge_test, metrics, depth)

    def frame_spy(p, g, curr, v, av, ah, edge_test, m, depth, *rest):
        frames.append((depth, edge_test is None))
        return real_run(p, g, curr, v, av, ah, edge_test, m, depth, *rest)

    monkeypatch.setattr(engine, "marker_dfs", spy)
    monkeypatch.setattr(engine, "_run", frame_spy)
    rng = SplitMix64(606)
    sources = set()
    runs = set()
    for n in (16, 24):  # several divided levels
        levels = _schedule(n, None, 2)[1]
        for _ in range(6):
            g = gen_random(n, 0.6, 0.6, rng.next_u64())
            reach(g, (1, 1), (n - 1, n - 1), EngineConfig(k=2))
        for p, *_, depth in captured:
            assert is_base_side(p.b, p.k) == (levels[depth + 1] is None), depth
            sources.add(is_base_side(p.b, p.k))
        for depth, swept in frames:
            assert swept == (levels[depth + 1] is None), depth
            runs.add(swept)
        captured.clear()
        frames.clear()
    assert sources == {False, True}
    assert runs == {False, True}
    for n in (12, 16):
        cfg = EngineConfig(k=4)  # one divided level: depth 0 is the last
        for _ in range(3):
            g = gen_random(n, 0.6, 0.6, rng.next_u64())
            u = (1 + rng.next_below(3), 1 + rng.next_below(3))
            v = (n - 1 - rng.next_below(3), n - 1 - rng.next_below(3))
            captured.clear()
            reach(g, u, v, cfg)
            # u and v share no block and no line, so the DFS always runs.
            assert captured, (n, u, v)
            (p, view, _, _, _, m, _), = captured
            assert (p.n, p.k) == (n, 4) and is_base_side(p.b, p.k)
            assert m.cur_tracked_words == 0
            words = base_charge(p.b, n)
            oracle = _aug_edge_oracle(p, whole(g), u, v)
            for c in [u] + gridline_vertices(p):
                want = [v] if oracle(c, v) else []
                want += [w for w in box_candidates(p, c, v) if w != v and oracle(c, w)]
                inside = sum(w != v and w[0] > c[0] and w[1] > c[1] for w in want)
                target = c != v and c[0] <= v[0] and c[1] <= v[1] and bool(
                    common_blocks(p, c, v))  # decided in the frame's block
                edges, base = m.edge_queries, m.base_case_calls
                run = real_run(p, view, c, v, [-1] * (p.k + 1), [p.n + 1] * (p.k + 1),
                               None, m, 0, u, 0, 0, words)
                got = []
                for w in itertools.islice(run, len(want) + 1):
                    assert m.cur_tracked_words == 0, (c, w)
                    got.append(w)
                assert got == want, (n, u, v, c)
                assert m.edge_queries - edges <= 2 + target, (n, u, v, c)
                assert m.base_case_calls - base <= inside + 1 + target, (n, u, v, c)


class _FrameWordsMetrics(Metrics):
    """Metrics that check, whenever a search of one divided level pushes or
    pops, that it holds exactly its level's words, read off its own marker
    arrays (one entry each, plus the level's locals), and its frames', and,
    whenever a hold runs inside that search, that it sits on exactly those
    words and holds at most one base case of the level's block side.  The
    arrays are the ones the search hands its frames: watch_marker_arrays
    sets them before the frame's push is noted."""

    __slots__ = ("arrays", "base_words")

    def __init__(self, base_words):
        super().__init__()
        self.arrays = None
        self.base_words = base_words

    def _check(self):
        av, ah = self.arrays
        frames = self.pushes - self.pops
        assert self.cur_tracked_words == (
            len(av) + len(ah) + Metrics.LEVEL_WORDS + Metrics.FRAME_WORDS * frames), frames

    def note_push(self, depth, w, frames):
        self._check()
        super().note_push(depth, w, frames)

    def note_pop(self):
        self._check()
        super().note_pop()

    def hold(self, words):
        if self.pushes > self.pops:  # inside the search: a frame holds it
            self._check()
            assert words <= self.base_words, words
        super().hold(words)


def watch_marker_arrays(monkeypatch, seen=None):
    """Make every marker-DFS frame, as it is made, set its metrics' arrays
    to the (av, ah) it is handed, and append its (p, u, v, av, ah, i0, j0)
    to seen where that is given."""
    real = engine._run

    def spied(p, g, curr, v, av, ah, edge_test, m, depth, u, i0, j0, words):
        m.arrays = av, ah
        if seen is not None:
            seen.append((p, u, v, av, ah, i0, j0))
        return real(p, g, curr, v, av, ah, edge_test, m, depth, u, i0, j0, words)
    monkeypatch.setattr(engine, "_run", spied)


def test_frame_sweep_released_when_the_search_ends(monkeypatch):
    """No frame sweep is held across a push or a pop, nor once the search
    ends, whether it finds the target or exhausts the stack; every hold
    inside the search sits on the level's and the frames' words alone and
    holds at most base_charge(b, n), the sweep of one block."""
    watch_marker_arrays(monkeypatch)
    rng = SplitMix64(707)
    cfg = EngineConfig(k=4)  # one divided level: every frame sweeps
    answers = set()
    for n in (12, 16):
        half = n // 2
        for _ in range(20):
            g = gen_random(n, 0.7, 0.7, rng.next_u64())
            s = (rng.next_below(half), rng.next_below(half))
            t = (half + 1 + rng.next_below(n - half), half + 1 + rng.next_below(n - half))
            m = _FrameWordsMetrics(base_charge(n // 4, n))
            got = reach(g, s, t, cfg, m).reachable
            assert got == oracle_reach(whole(g), s, t)
            assert m.cur_tracked_words == 0
            if m.pushes:
                answers.add(got)
                assert m.base_case_calls > 0
    assert answers == {False, True}


class _WordsLog(_FrameWordsMetrics):
    """_FrameWordsMetrics that also record every pushed vertex in log."""

    __slots__ = ("log",)

    def __init__(self, base_words):
        super().__init__(base_words)
        self.log = []

    def note_push(self, depth, w, frames):
        self.log.append(w)
        super().note_push(depth, w, frames)


# (n, k): two searches at the last divided level (b <= k, the frames
# sweep), one of them on side-2 blocks, and two above it (the frames test).
BOX_MARKER_CASES = [(16, 4), (12, 6), (12, 3), (12, 2)]


@pytest.mark.parametrize("n, k", BOX_MARKER_CASES)
def test_box_sized_markers_match_full_width_markers(monkeypatch, n, k):
    """A marker DFS holds one marker per gridline of its target's box
    (auxgraph.box_gridlines), indexed from the box's first gridline, and
    charges exactly those entries, the level's locals and two words per
    frame at every push and pop (_FrameWordsMetrics).  Its pushes and its
    verdict equal those of the search with full-width marker arrays
    (support.reference_marker_dfs) on the reference edge rule
    (_aug_edge_oracle), from sources on and off the gridlines, towards
    targets on the lattice's east and north edges (x = n, y = n, where
    ne_corner clamps), inside the lattice, and west or south of the source
    ("behind"), where the box is empty and the arrays hold the source's own
    lines."""
    p = AuxParams(n, k)
    b = p.b
    swept = is_base_side(b, k)
    seen = []
    watch_marker_arrays(monkeypatch, seen)
    rng = SplitMix64(2300 + 10 * n + k)
    pushes = 0
    half = n // 2  # sources in the south-west quarter, so most boxes are wide
    lines = [w for w in gridline_vertices(p) if max(w) <= half]
    cases = set()
    for q in (0.5, 0.7, 0.9):
        g = whole(gen_random(n, q, q, rng.next_u64()))
        for trial in range(100):
            if trial % 2:
                u = lines[rng.next_below(len(lines))]
            else:
                u = (rng.next_below(half + 1), rng.next_below(half + 1))
            x = u[0] + rng.next_below(n + 1 - u[0])
            y = u[1] + rng.next_below(n + 1 - u[1])
            kind = ("east", "north", "inside", "behind")[trial // 2 % 4]
            v = {"east": (n, y), "north": (x, n), "inside": (x, y),
                 "behind": (rng.next_below(n + 1), rng.next_below(n + 1))}[kind]
            if kind == "behind" and v[0] >= u[0] and v[1] >= u[1]:
                v = (v[0], u[1] - 1) if u[1] else (u[0] - 1, v[1])
            if v == u or min(v) < 0:
                continue
            edge = _aug_edge_oracle(p, g, u, v)
            ref_log = []
            want = reference_marker_dfs(p, u, v, edge, ref_log)
            m = _WordsLog(base_charge(b, n))
            seen.clear()
            got = marker_dfs(p, g, u, v, None if swept else edge, m)
            where = (n, k, u, v)
            assert (got, m.log) == (want, ref_log), where
            assert m.cur_tracked_words == 0, where
            assert_no_violations(m)
            box = box_gridlines(p, u, v)
            for *_, av, ah, i0, j0 in seen:
                assert (i0, len(av), j0, len(ah)) == box, where
            share = u[0] == v[0] or u[1] == v[1] or common_blocks(p, u, v)
            if kind != "behind" and not share:
                assert got == oracle_reach(g, u, v), where
            cases.add((kind, is_gridline_vertex(p, u), got))
            pushes += len(ref_log)
    assert {(kind, on) for kind, on, _ in cases} == {
        (kind, on) for kind in ("east", "north", "inside", "behind")
        for on in (False, True)}, cases
    assert {got for kind, _, got in cases if kind != "behind"} == {False, True}
    assert pushes > 500, pushes


def watch_frame_sweeps(monkeypatch) -> list:
    """Spy on the row sweeps of the frames that sweep (those handed no edge
    test), on both bindings: the engine's, which the target's sweep reads,
    and grid's, which the frame sweep (grid.arc_sweep) reads.  Returns the
    list that gets, for each row_sweep call inside a visit of such a frame,
    (frame, visit, curr, v.x, x1, wx, kind, reach, y, ty, x, mask): the
    frame's serial number, the visit's, the frame's vertex, the target's
    column, the east column of the frame's block and the window of the
    level's view, then "target" or "arc", the call's arguments and the
    mask it returns.  A swept frame recurses nowhere, so every row_sweep
    call inside its visit is its own."""
    real_run = engine._run
    real_sweep = grid.row_sweep
    calls = []
    frame = [None]  # the swept frame whose visit runs, or None
    serial = itertools.count()

    def visits(gen, number, *where):
        for visit in itertools.count():
            frame[0] = (number, visit, *where)
            try:
                w = next(gen)
            except StopIteration:
                return
            finally:
                frame[0] = None
            yield w

    def run_spy(p, g, curr, v, av, ah, edge_test, *rest):
        gen = real_run(p, g, curr, v, av, ah, edge_test, *rest)
        if edge_test is not None:
            return gen
        return visits(gen, next(serial), curr, v[0], ne_corner(p, curr)[0], g.wx)

    def sweep_spy(kind):
        def spy(view, reach, y, ty, x):
            mask = real_sweep(view, reach, y, ty, x)
            if frame[0] is not None:
                calls.append((*frame[0], kind, reach, y, ty, x, mask))
            return mask
        return spy

    monkeypatch.setattr(engine, "_run", run_spy)
    monkeypatch.setattr(engine, "row_sweep", sweep_spy("target"))
    monkeypatch.setattr(grid, "row_sweep", sweep_spy("arc"))
    return calls


def test_frame_sweep_closes_each_row_once(monkeypatch):
    """Within one visit of a frame, its row_sweep calls cover disjoint
    rows: each call starts on the frame's own row, where it opens the
    target's sweep or a frame sweep, or on the row above the one the last
    call closed, the mask lifted into it, never on that row again.  The
    frames of a search share the level's view, so the calls are told apart
    by the frame and the visit that makes them (watch_frame_sweeps)."""
    calls = watch_frame_sweeps(monkeypatch)
    rng = SplitMix64(808)
    for cfg in (EngineConfig(epsilon=1.0), EngineConfig(epsilon=0.5)):
        for _ in range(40):
            g = gen_random(16, 0.7, 0.7, rng.next_u64())
            s = (rng.next_below(8), rng.next_below(8))
            t = (9 + rng.next_below(8), 9 + rng.next_below(8))
            assert reach(g, s, t, cfg).reachable == oracle_reach(whole(g), s, t)
    last = {}
    lifted = 0
    for frame, visit, (cx, cy), *_, y, ty, x, mask in calls:
        prev = last.get((frame, visit))
        where = (frame, visit, (cx, cy), y, ty)
        if prev is None:
            assert y == cy, where
        else:
            assert y != prev and y in (cy, prev + 1), where
            lifted += y == prev + 1
        last[frame, visit] = ty
    assert lifted > 100, lifted


@pytest.mark.parametrize("n, cfg", [(16, EngineConfig(k=4)), (16, EngineConfig(epsilon=0.5)),
                                    (13, EngineConfig(k=3)), (24, EngineConfig(epsilon=1.0))])
def test_frame_sweeps_stop_at_their_cut(monkeypatch, n, cfg):
    """Every row sweep a frame runs on the level's view is cut at the column
    it asks about: the target's sweep at the target's column, each row
    sweep of a frame sweep at the east column x1 of the frame's block.
    Neither the mask handed in nor the mask returned holds a column east of
    that cut, so a sweep holds no more columns than the frame's block,
    b + 1, on unpadded schedules and on padded ones (whose blocks run past
    the view's window).  Many masks reach their cut, so a sweep that
    dropped or moved it would spread past it."""
    calls = watch_frame_sweeps(monkeypatch)
    rng = SplitMix64(2700 + n)
    half = n // 2
    for _ in range(20):
        g = gen_random(n, 0.7, 0.7, rng.next_u64())
        s = (rng.next_below(half), rng.next_below(half))
        t = (half + 1 + rng.next_below(n - half), half + 1 + rng.next_below(n - half))
        assert reach(g, s, t, cfg).reachable == oracle_reach(whole(g), s, t), (s, t)
    kinds = set()
    at_cut = past = 0
    for *_, vx, x1, wx, kind, reach_in, y, ty, x, mask in calls:
        cut = vx if kind == "target" else x1
        assert x == cut and reach_in >> cut + 1 == 0 and mask >> cut + 1 == 0, (
            kind, cut, x, reach_in, mask)
        kinds.add(kind)
        at_cut += mask >> cut & 1
        past += x1 > wx
    assert kinds == {"target", "arc"}, kinds
    assert at_cut > 50, at_cut
    padded = _schedule(n, cfg.epsilon, cfg.k)[1][0].n > n
    assert (past > 0) == padded, past


@pytest.mark.parametrize("n, k", [(12, 3), (16, 4), (10, 2)])
def test_swept_run_matches_the_tested_run(n, k):
    """The run (_run) with no edge test, which sweeps, and with one, which
    tests, yields what the reference run (support.reference_run, cut to the
    target's box) yields on the reference edge rule (_aug_edge_oracle),
    visit by visit, with random markers that move between visits: from an
    interior source and from every gridline vertex (those with cx = n or
    cy = n included), with the target on the frame's run and off it.  Both
    probes yield the target first where the edge rule joins it.  Both
    decide the two candidates on the frame's own row and column, and a
    target there, themselves, at one edge query for each one the reference
    tests.  The tested probe asks the edge test about exactly the other
    candidates the reference asks about, in the same order, and opens no
    sweep.  The swept probe asks no edge test: it decides a target off the
    frame's row and column at one edge query and one sweep where the
    reference tests it, and opens one more sweep exactly when the
    reference tests a candidate other than the target strictly north-east
    of the frame's vertex; it holds no sweep words at a yield."""
    p = AuxParams(n, k)
    b = p.b
    rng = SplitMix64(808 + n)
    sites = gridline_vertices(p)
    hits = on_run = 0

    def marker(none):
        return none if rng.next_below(3) == 0 else rng.next_below(n + 1)

    for q in (0.5, 0.7, 0.9):
        g = whole(gen_random(n, q, q, rng.next_u64()))
        u = (1 + rng.next_below(b - 1), 1 + rng.next_below(b - 1))
        for curr in [u] + sites:
            run = list(iter_candidates(p, curr))
            if run and rng.next_below(2):
                v = run[rng.next_below(len(run))]
                on_run += 1
            else:  # mostly in curr's box, as in a search, else anywhere
                lo = curr if rng.next_below(3) else (0, 0)
                v = (lo[0] + rng.next_below(n + 1 - lo[0]),
                     lo[1] + rng.next_below(n + 1 - lo[1]))
            edge = _aug_edge_oracle(p, g, u, v)
            asked = []  # per visit: the candidates the reference tests
            probed = []  # and those the tested probe tests

            def edge_to(log):
                def fn(c, w):
                    log.append(w)
                    return edge(c, w)
                return fn

            av = [marker(-1) for _ in range(k + 1)]
            ah = [marker(n + 1) for _ in range(k + 1)]
            m = Metrics()
            mt = Metrics()
            ref = reference_run(p, curr, v, av, ah, edge_to(asked))
            # Full-width markers, indexed from gridline 0 (offsets 0, 0).
            words = base_charge(b, n)
            swept = engine._run(p, g, curr, v, av, ah, None, m, 0, u, 0, 0, words)
            tested = engine._run(p, g, curr, v, av, ah, edge_to(probed), mt, 0, u, 0, 0, words)
            x1, y1 = ne_corner(p, curr)
            lines = {(x1, curr[1]), (curr[0], y1)} - {v}  # decided by the frame
            if v[0] == curr[0] or v[1] == curr[1]:  # and so is a target there
                lines.add(v)
            sweeps = 0  # sweeps answering the target or a candidate tested
            for _ in range(len(run) + 1):  # a visit yields one candidate or ends
                asked.clear()
                probed.clear()
                spent = m.edge_queries, mt.edge_queries
                want = next(ref, None)
                where = (n, k, u, v, curr, av, ah)
                assert next(swept, None) == want, where
                assert next(tested, None) == want, where
                assert probed == [w for w in asked if w not in lines], where
                line_tests = sum(w in lines for w in asked)
                assert (m.edge_queries - spent[0], mt.edge_queries - spent[1]) == (
                    line_tests + (v in asked and v not in lines), line_tests), where
                assert m.cur_tracked_words == mt.cur_tracked_words == 0, (curr, want)
                sweeps += v in asked and v[0] > curr[0] and v[1] > curr[1]
                sweeps += any(w != v and w[0] > curr[0] and w[1] > curr[1]
                              for w in asked)
                assert m.base_case_calls == sweeps, where
                # A line walk holds its cursor, never a sweep's mask.
                assert mt.base_case_calls == 0, where
                assert mt.peak_tracked_words <= Metrics.WALK_WORDS, where
                if want is None:
                    break
                hits += 1
                for a, none in ((av, -1), (ah, n + 1)):
                    if rng.next_below(2):
                        a[rng.next_below(k + 1)] = marker(none)
            else:
                raise AssertionError(f"the run of {curr} did not end")
    assert hits > 100 and on_run > 20, (hits, on_run)


@pytest.mark.parametrize("n, k", [(12, 3), (16, 4), (10, 2), (18, 3)])
def test_frame_decides_its_line_candidates_by_the_edge_rule(n, k):
    """A frame decides the two candidates on its own row and column, (x1,
    cy) and (cx, y1), and a target there, without the edge test.  From an
    interior source and from every gridline vertex, as a frame of that
    search and as the source itself, towards the far corner and towards a
    target in the vertex's box, the run (_run) with no marker set, tested
    or swept, yields a line candidate exactly where the reference edge
    rule (_aug_edge_oracle) joins it.  Each line candidate costs one edge
    query, and each that passes the gridline filter one call at the next
    depth, its straight walk.  A target in the vertex's block on its row
    or column adds one edge query, and one walk where it passes the
    filter; the swept probe's decision of a target off them adds one edge
    query, and the tested probe's none of its own.  The cases cover
    vertices on a horizontal gridline (cy % b == 0, where (x1, cy) shares
    their line), on a vertical one (cx % b == 0, where (cx, y1) does), and
    both verdicts of each."""
    p = AuxParams(n, k)
    b = p.b
    rng = SplitMix64(909 + n)
    sites = gridline_vertices(p)
    cases = set()
    for q in (0.5, 0.8, 1.0):
        g = whole(gen_random(n, q, q, rng.next_u64()))
        interior = (1 + rng.next_below(b - 1), 1 + rng.next_below(b - 1))
        for curr in [interior] + sites:
            for u in {interior, curr}:
                box = (curr[0] + rng.next_below(n + 1 - curr[0]),
                       curr[1] + rng.next_below(n + 1 - curr[1]))
                for v in {(n, n), box}:
                    x1, y1 = ne_corner(p, curr)
                    lines = [w for w in ((x1, curr[1]), (curr[0], y1))
                             if w != curr and w != v and w[0] <= v[0] and w[1] <= v[1]]
                    edge = _aug_edge_oracle(p, g, u, v)
                    want = [w for w in lines if edge(curr, w)]
                    walks = sum(_aug_line_filter(b, u, v, curr, w) for w in lines)

                    # The frame decides a target in curr's block on curr's
                    # row or column by the same rule and walk.
                    target = curr != v and bool(common_blocks(p, curr, v))
                    on_line = target and (v[0] == curr[0] or v[1] == curr[1])
                    walk = on_line and _aug_line_filter(b, u, v, curr, v)

                    def edge_test(c, w):
                        assert w not in lines and not (on_line and w == v), (c, w)
                        return edge(c, w)

                    av, ah = [-1] * (k + 1), [n + 1] * (k + 1)
                    for probe in (edge_test, None):
                        m = Metrics()
                        run = engine._run(p, g, curr, v, av, ah, probe, m, 0, u, 0, 0,
                                          base_charge(b, n))
                        where = (n, k, u, v, curr, probe is None)
                        assert [w for w in run if w in lines] == want, where
                        assert m.edge_queries == len(lines) + (
                            on_line if probe else target), where
                        calls = (m.recursive_calls_by_depth[1:] or [0])[0]
                        assert calls - m.base_case_calls == walks + walk, where
                    for w in lines:
                        line = ("horizontal" if w[1] == curr[1] and curr[1] % b == 0 else
                                "vertical" if w[0] == curr[0] and curr[0] % b == 0 else
                                "crossing")
                        cases.add((line, curr == u, w in want))
    assert cases == {(line, source, joined) for line in ("horizontal", "vertical")
                     for source in (False, True) for joined in (False, True)} | {
        ("crossing", source, joined) for source in (False, True)
        for joined in (False, True)}, cases


@pytest.mark.parametrize("n, k", [(9, 3), (12, 4), (16, 4)])
def test_swept_target_decision_matches_lattice_reach(monkeypatch, n, k):
    """At the last divided level a frame decides the target in its own
    block.  From the search's source and from every gridline vertex, towards
    every vertex of the frame's block north-east of it (a corner, one on a
    vertical or a horizontal gridline, one inside the block, and one on the
    frame's own row or column), the swept run's first yield is the target
    exactly where the gridline rule with the endpoint augmentation
    (_aug_line_filter) joins the two and lattice_reach finds a path inside
    the block's box.  Each decision costs one edge query, one call at the
    next depth where the rule joins the pair and one base case where the
    target lies off the frame's row and column, and holds at most one base
    case of the block's side on top of the level and its frame; the words
    are those marker_dfs hands its frames, and the search asks no edge
    test."""
    p = AuxParams(n, k)
    b = p.b
    assert is_base_side(b, k)
    # The level, with the k+1 markers a side the runs below are handed, and
    # one frame.
    held = level_charge(2 * (k + 1)) + Metrics.FRAME_WORDS
    bound = held + base_charge(b, n)
    real = engine._run
    words = []

    def spy(p, g, curr, v, av, ah, edge_test, *rest):
        assert edge_test is None  # the search sweeps: it hands no edge test
        words.append(rest[-1])
        return real(p, g, curr, v, av, ah, edge_test, *rest)

    def no_edge_test(c, w):
        raise AssertionError(f"edge test asked about {c} -> {w}")

    monkeypatch.setattr(engine, "_run", spy)
    none_v, none_h = [n] * (k + 1), [0] * (k + 1)  # markers that admit nothing
    rng = SplitMix64(1700 + n)
    cases = set()
    for q in (0.5, 0.7, 0.9):
        g = gen_random(n, q, q, rng.next_u64())
        view = whole(g)
        u = (1 + rng.next_below(b - 1), 1 + rng.next_below(b - 1))
        words.clear()
        m = Metrics()
        assert marker_dfs(p, view, u, (n, n), no_edge_test, m) == lattice_reach(
            g, (0, 0, n, n), u, (n, n))
        word, = set(words)
        for curr in [u] + gridline_vertices(p):
            x1, y1 = ne_corner(p, curr)
            box = (x1 - b, y1 - b, x1, y1)
            for v in itertools.product(range(curr[0], x1 + 1), range(curr[1], y1 + 1)):
                if v == curr:
                    continue
                kind = ("row" if v[1] == curr[1] else "column" if v[0] == curr[0] else
                        "corner" if v[0] % b == 0 and v[1] % b == 0 else
                        "vertical" if v[0] % b == 0 else
                        "horizontal" if v[1] % b == 0 else "interior")
                rule = _aug_line_filter(b, u, v, curr, v)
                m = Metrics()
                m.charge(held)
                run = real(p, view, curr, v, none_v, none_h, None, m, 0, u, 0, 0, word)
                got = next(run, None) == v
                where = (n, k, u, curr, v)
                assert got == (rule and lattice_reach(g, box, curr, v)), where
                assert m.edge_queries == 1, where
                assert m.recursive_calls_by_depth[1:] == ([1] if rule else []), where
                assert m.base_case_calls == (kind not in ("row", "column")), where
                assert m.peak_tracked_words <= bound, where
                if m.base_case_calls:
                    assert m.peak_tracked_words == bound, where
                cases.add((kind, got))
    assert cases == {(kind, got) for got in (False, True) for kind in (
        "corner", "vertical", "horizontal", "interior", "row", "column")}, cases


# (epsilon, graph seed, s, t) of dense SW->NE NO queries at n=16, with their
# pushes, pops, edge tests, peak words (each search charging one marker per
# gridline of its target's box), base calls, calls by depth and peak stacks
# by depth.  At epsilon=1.0 (k=4, one divided level) each frame reads its
# run off one sweep per visit; at epsilon=0.5 (k=2, three divided levels)
# the upper levels test their candidates one edge at a time.  Every divided
# level first runs the entry check, one base call: the rows with no push
# are queries it answers at the top level, and at epsilon=0.5 it answers
# some of the block queries below.  The ids name each query by its epsilon
# and graph seed only, so that a change of counters keeps them.
PINNED = [
    (1.0, 0xa5ae756ef08b54, (3, 2), (9, 11), 0, 0, 0, 5, 1, [1], []),
    (1.0, 0xfbf7686c79996480, (0, 4), (13, 13), 33, 33, 35, 30, 47, [1, 64], [5]),
    (1.0, 0x5143cb60fae5d8b0, (1, 3), (10, 12), 18, 18, 22, 26, 19, [1, 30], [4]),
    (1.0, 0xb823eef2524d39a4, (2, 0), (12, 9), 20, 20, 27, 29, 25, [1, 39], [5]),
    (0.5, 0x645e3cfb387c1dc2, (2, 7), (12, 9), 0, 0, 0, 6, 1, [1], []),
    (0.5, 0x3fd8e85ac1ae6d0, (2, 3), (15, 14), 71, 71, 218, 52, 138,
     [1, 12, 113, 150], [1, 3, 2]),
    (0.5, 0x5d3894041566196f, (2, 1), (14, 10), 0, 0, 0, 6, 1, [1], []),
    (0.5, 0x92ba44589415cc44, (0, 2), (14, 9), 119, 119, 295, 51, 187,
     [1, 15, 136, 242], [1, 2, 2]),
    (0.5, 0x58210fc51b3a7cfe, (1, 5), (11, 15), 37, 37, 99, 46, 63,
     [1, 11, 36, 70], [1, 1, 2]),
]


@pytest.mark.parametrize("eps, seed, s, t, pushes, pops, edges, words, base, calls, stacks",
                         PINNED, ids=[f"{row[0]}-{row[1]:#x}" for row in PINNED])
def test_pinned_dense_no_queries(eps, seed, s, t, pushes, pops, edges, words, base, calls,
                                 stacks):
    g = gen_random(16, 0.7, 0.7, seed)
    a = reach(g, s, t, EngineConfig(epsilon=eps))
    m = a.metrics
    assert not a.reachable and not oracle_reach(whole(g), s, t)
    assert (m.pushes, m.pops, m.edge_queries, m.peak_tracked_words) == (
        pushes, pops, edges, words)
    assert m.base_case_calls == base
    assert (m.recursive_calls_by_depth, m.peak_stack_by_depth) == (calls, stacks)
    assert m.cur_tracked_words == 0
    assert_no_violations(m)


def hard_set(n, queries):
    """The hard set of side n: dense random graphs, each with a source in
    its south-west quarter and a target in its north-east one, drawn from
    SplitMix64(4242 + n).  Each query draws, in order, the graph seed
    (gen_random(n, 0.7, 0.7, seed)), then s, then t."""
    rng = SplitMix64(4242 + n)
    half = n // 2
    for _ in range(queries):
        g = gen_random(n, 0.7, 0.7, rng.next_u64())
        s = (rng.next_below(half + 1), rng.next_below(half + 1))
        t = (half + rng.next_below(n - half + 1), half + rng.next_below(n - half + 1))
        yield g, s, t


# (epsilon, n, queries) of a hard set, with its summed calls by depth,
# pushes, edge queries and base calls, its peak words, and the SHA-256 of
# every query's verdict and push log with depths, in order.  At epsilon=0.5
# the pushes span three and four divided levels, whose upper frames test
# their candidates; at epsilon=1.0, n=64 one level, whose frames sweep.
HARD_SETS = [
    (0.5, 16, 20, [20, 234, 586, 1125], 788, 1536, 1009, 57,
     "7cbff2abbd9782e6e5c730828fc564f9ee069e4c4f1f00a41d7fc593bda21a77"),
    (0.5, 24, 20, [20, 267, 830, 2356, 3575], 2945, 5576, 3647, 71,
     "de8c597d2c20cf9e75625508af99432fc9e8d4fa56dc214804c71a32d1a11328"),
    (1.0, 64, 6, [6, 494], 226, 249, 366, 45,
     "cba2dc1caedb0788642de744c51de7f175fb4c99425443d5926d3913925e6913"),
]


@pytest.mark.parametrize("eps, n, queries, calls, pushes, edges, base, words, digest",
                         HARD_SETS, ids=[f"{row[0]}-{row[1]}" for row in HARD_SETS])
def test_pinned_hard_sets(eps, n, queries, calls, pushes, edges, base, words, digest):
    """The hard sets' verdicts, push order across levels and totals stay
    as pinned; every verdict equals the oracle's."""
    cfg = EngineConfig(epsilon=eps)
    h = hashlib.sha256()
    by_depth = []
    totals = [0, 0, 0, 0]  # pushes, edge queries, base calls, peak words
    for g, s, t in hard_set(n, queries):
        m = PushLog()
        got = reach(g, s, t, cfg, m).reachable
        assert got == oracle_reach(whole(g), s, t), (n, s, t)
        assert_no_violations(m)
        h.update(repr((got, m.log)).encode())
        by_depth += [0] * (len(m.recursive_calls_by_depth) - len(by_depth))
        for d, c in enumerate(m.recursive_calls_by_depth):
            by_depth[d] += c
        totals[0] += m.pushes
        totals[1] += m.edge_queries
        totals[2] += m.base_case_calls
        totals[3] = max(totals[3], m.peak_tracked_words)
    assert (by_depth, *totals) == (calls, pushes, edges, base, words)
    assert h.hexdigest() == digest


class _Markers:
    """The marker arrays replayed from a push log: per vertical gridline
    the topmost vertex pushed, per horizontal gridline the leftmost."""

    def __init__(self, b):
        self.b = b
        self.av = {}
        self.ah = {}

    def admits(self, w):
        """(vertical admits, horizontal admits) for candidate w."""
        x, y = w
        b, av, ah = self.b, self.av, self.ah
        return (x % b == 0 and (x // b not in av or av[x // b][1] < y),
                y % b == 0 and (y // b not in ah or ah[y // b][0] > x))

    def push(self, w):
        admits_v, admits_h = self.admits(w)
        if admits_v:
            self.av[w[0] // self.b] = w
        if admits_h:
            self.ah[w[1] // self.b] = w


def test_marker_arrays_only_advance():
    """Every push is admitted by a marker that still points strictly below
    (vertical lines) or strictly right (horizontal lines) of the vertex,
    and updates only ever advance the markers."""
    rng = SplitMix64(99)
    p = AuxParams(12, 3)

    for trial in range(10):
        g = whole(gen_random(12, 0.55, 0.55, rng.next_u64()))
        m = PushLog()
        marker_dfs(p, g, (0, 0), (12, 12), _edge_oracle_from(g, p), m)
        markers = _Markers(p.b)
        for _, w in m.log:
            assert any(markers.admits(w)), w
            markers.push(w)


def test_edge_test_asked_only_for_admitted_candidates(monkeypatch):
    """The markers gate the edge tests: apart from the entry tests into the
    target, every edge the search asks about leads to a candidate that a
    marker, as it stood at that moment, still admits.  That holds for the
    edges the edge test decides and for the two on the frame's own row and
    column, which the frame decides itself and which are logged here where
    they meet the gridline rule.  The target included, every edge asked
    about lies in a block holding its tail."""
    rule = engine._gridline_rule
    rng = SplitMix64(313)
    checked = lines = 0
    for p in (AuxParams(12, 3), AuxParams(16, 4)):
        low = [w for w in gridline_vertices(p) if max(w) < p.n // 2]
        high = [w for w in gridline_vertices(p) if min(w) > p.n // 2]
        for trial in range(12):
            q = (0.5, 0.6, 0.7)[trial % 3]
            g = whole(gen_random(p.n, q, q, rng.next_u64()))
            u = low[rng.next_below(len(low))]
            v = high[rng.next_below(len(high))]
            m = PushLog()
            oracle = _aug_edge_oracle(p, g, u, v)  # the frame's own rule
            asked = []

            def edge_test(curr, w):
                asked.append((len(m.log), curr, w))
                return oracle(curr, w)

            def line_rule(b, u_, v_, curr, w):
                asked.append((len(m.log), curr, w))
                lined.append(w)
                return rule(b, u_, v_, curr, w)

            lined = []
            monkeypatch.setattr(engine, "_gridline_rule", line_rule)
            marker_dfs(p, g, u, v, edge_test, m)
            lines += len(lined)
            markers = _Markers(p.b)
            replayed = 0
            for pushes, curr, w in asked:
                for _, x in m.log[replayed:pushes]:
                    markers.push(x)
                replayed = pushes
                assert common_blocks(p, curr, w), (p, u, v, curr, w)
                if w != v:
                    assert any(markers.admits(w)), (p, u, v, curr, w)
                    checked += 1
    assert checked > 200 and lines > 100, (checked, lines)


def test_determinism_of_answers_and_metrics():
    g = gen_random(16, 0.5, 0.5, 1234)
    cfg = EngineConfig(epsilon=0.5)
    a1 = reach(g, (1, 2), (14, 15), cfg)
    a2 = reach(g, (1, 2), (14, 15), cfg)
    assert a1.reachable == a2.reachable
    for field in ("pushes", "pops", "edge_queries", "base_case_calls",
                  "peak_tracked_words"):
        assert getattr(a1.metrics, field) == getattr(a2.metrics, field)
    assert a1.metrics.recursive_calls_by_depth == a2.metrics.recursive_calls_by_depth
    assert a1.metrics.peak_stack_by_depth == a2.metrics.peak_stack_by_depth


def test_injected_faults_trip_the_counters(monkeypatch):
    # sanity: a healthy run counts no violation
    g = gen_family("full", 16)
    assert_no_violations(reach(g, (0, 0), (16, 16), EngineConfig(epsilon=1.0)).metrics)

    p = AuxParams(12, 3)
    full = whole(gen_family("full", 12))
    u, v = (0, 0), (12, 12)

    def run(fault, target=v, fresh=False):
        # A frame's run is the reference run over the faulty enumeration
        # (the box's, for None), on the engine's markers or, with fresh
        # set, on markers nothing has moved, so that it ignores every push.  Every edge into the
        # target is refused, so no frame's entry test ends the search.
        def frame(p, g, curr, v, av, ah, test, *_):
            if fresh:
                av, ah = [-1] * (p.k + 1), [p.n + 1] * (p.k + 1)
            return reference_run(p, curr, v, av, ah, test, fault)

        monkeypatch.setattr(engine, "_run", frame)
        m = Metrics()
        got = marker_dfs(p, full, u, target, lambda c, w: w != target, m)
        return got, (m.stack_bound_violations, m.visit_once_violations,
                     m.push_bound_violations)

    def climb(pushes, target=v):
        # Climbs column 0 one vertex at a time and stops after `pushes`
        # vertices.  Above the target's box it skips the horizontal
        # gridlines, which have no marker there.
        ys = [y for y in range(2 * pushes) if y <= target[1] or y % p.b]
        nxt = dict(zip(ys[:pushes - 1], ys[1:pushes]))

        def fault(p, curr):
            if curr[1] in nxt:
                yield 0, nxt[curr[1]]
        return fault

    # Stack bound: within the lattice the vertical marker admits the whole
    # column, and the stack climbs to 13 frames against the 2k+1 = 7 bound.
    assert run(climb(p.n + 1)) == (False, (6, 0, 0))

    # Visit-once: runs that ignore the markers offer every vertex again
    # each time a frame reaches it.  Towards (6, 5) the search pushes 13
    # distinct vertices 30 times; the engine's markers admit none of the 17
    # repeats, nor 3 first pushes of vertices they had ruled out.  The 30
    # pushes also pass that box's push bound, 27 (below).
    assert run(None, (6, 5), fresh=True) == (False, (0, 20, 1))

    # Push bound: every push but the source's advances one of the box's
    # markers, and each takes at most one value per row (column) of the
    # box, so at most 1 + nx*(v.y-u.y+1) + ny*(v.x-u.x+1) pushes are
    # admitted.  Besides pushes no marker admits, only an enumeration that
    # leaves the box can breach it.  On the whole lattice that count is
    # 1 + 4*13 + 4*13 = 105.
    assert run(climb(105)) == (False, (105 - 7, 0, 0))
    assert run(climb(106)) == (False, (106 - 7, 0, 1))
    # Towards (6, 5) the box holds two gridlines on either axis, 1 + 2*6 +
    # 2*7 = 27 pushes, far below the full-width 2(k+1)(n+1)+2 = 106.  Its
    # endpoint lies off the gridlines, so the stack bound is 2k+3 = 9.
    assert box_gridlines(p, u, (6, 5)) == (0, 2, 0, 2)
    assert run(climb(27, (6, 5)), (6, 5)) == (False, (27 - 9, 0, 0))
    assert run(climb(28, (6, 5)), (6, 5)) == (False, (28 - 9, 0, 1))
