import pytest

from gridreach import (
    AuxParams,
    EngineConfig,
    InvariantViolation,
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
    reach,
    reach_recursive,
)
from gridreach.engine import shared_block

from support import common_blocks, is_edge


def whole(g):
    return SubgridView.whole(g)


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
    with pytest.raises(ValueError):
        EngineConfig(epsilon=1.0, base_side_max=1)


# ---------------------------------------------------------------------------
# base case

def test_base_dfs_trivia():
    g = whole(gen_family("full", 2))
    assert base_dfs(g, (0, 0), (2, 2))
    assert not base_dfs(whole(gen_family("empty", 2)), (0, 0), (1, 1))
    assert base_dfs(whole(gen_family("empty", 2)), (1, 1), (1, 1))


def test_base_dfs_matches_oracle():
    rng = SplitMix64(11)
    for _ in range(60):
        g = whole(gen_random(4, 0.5, 0.5, rng.next_u64()))
        for _ in range(8):
            s = (rng.next_below(5), rng.next_below(5))
            t = (rng.next_below(5), rng.next_below(5))
            assert base_dfs(g, s, t) == oracle_reach(g, s, t)
    stair = whole(gen_family("staircase", 4))
    assert base_dfs(stair, (0, 0), (4, 4)) == oracle_reach(stair, (0, 0), (4, 4))


# ---------------------------------------------------------------------------
# block geometry

@pytest.mark.parametrize("p", [AuxParams(9, 3), AuxParams(12, 4)])
def test_shared_block_matches_reference(p):
    pts = [(x, y) for y in range(p.n + 1) for x in range(p.n + 1)]
    for a in pts:
        for c in pts:
            if c[0] < a[0] or c[1] < a[1]:
                continue
            blocks = common_blocks(p, a, c)
            origin = shared_block(p.b, a[0], a[1], c[0], c[1])
            if origin is None:
                assert blocks == [], (a, c)
            else:
                assert origin[0] % p.b == 0 and origin[1] % p.b == 0
                assert (origin[0] // p.b, origin[1] // p.b) in blocks, (a, c)
            if a[0] != c[0] and a[1] != c[1]:
                assert len(blocks) <= 1, (a, c)


# ---------------------------------------------------------------------------
# the marker traversal on a supplied edge oracle

def _edge_oracle_from(g, p):
    return lambda curr, w: is_edge(p, g, curr, w)


def test_algo_lggr_full_and_empty():
    p = AuxParams(9, 3)
    full = whole(gen_family("full", 9))
    assert marker_dfs(p, full, (0, 0), (9, 9), _edge_oracle_from(full, p))
    empty = whole(gen_family("empty", 9))
    assert not marker_dfs(p, empty, (0, 0), (9, 9), _edge_oracle_from(empty, p))


def _aug_edge_oracle(p, g, u, v):
    """The engine's edge semantics for a (u, v) query: the plain rule plus
    same-line corner hops at the two endpoints, decided by the oracle."""
    from support import block_reach, common_blocks

    b = p.b

    def fn(curr, w):
        if w[0] < curr[0] or w[1] < curr[1] or w == curr:
            return False
        same_line = (w[0] == curr[0] and curr[0] % b == 0) or (
            w[1] == curr[1] and curr[1] % b == 0)
        if same_line:
            w_corner = w[0] % b == 0 and w[1] % b == 0
            c_corner = curr[0] % b == 0 and curr[1] % b == 0
            if not ((c_corner and w_corner) or (curr == u and w_corner)
                    or (w == v and c_corner)):
                return False
        return any(block_reach(p, g, blk, curr, w)
                   for blk in common_blocks(p, curr, w))

    return fn


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
            got = marker_dfs(p, g, u, v, _aug_edge_oracle(p, g, u, v), m,
                            extra=v, check=True)
            assert got == oracle_reach(g, u, v), (u, v)
            checked += 1
    assert checked > 100


def test_target_found_even_when_markers_point_past_it():
    """A target sitting below an already-advanced marker must still be
    recognized the moment it is enumerated."""
    north = [0] * 10
    east = [0] * 10
    for x in range(3):
        east[0] |= 1 << x          # bottom row to (3,0)
    for y in range(3):
        north[y] |= 1 << 3         # column x=3 up to (3,3)
    g = LayeredGridGraph(9, north, east)
    for eps in (0.5, 1.0):
        a = reach(g, (0, 0), (3, 1), EngineConfig(epsilon=eps, check_invariants=True))
        assert a.reachable
        assert a.metrics.visit_once_violations == 0


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
    with pytest.raises(ValueError):
        reach(g, (0, 0), (5, 5), EngineConfig(epsilon=1.0))


def test_reach_recursive_on_views():
    g = gen_random(16, 0.6, 0.6, 9)
    v = SubgridView.whole(g).sub(4, 4, 8)
    cfg = EngineConfig(epsilon=1.0)
    rng = SplitMix64(31)
    for _ in range(40):
        s = (rng.next_below(9), rng.next_below(9))
        t = (rng.next_below(9), rng.next_below(9))
        assert reach_recursive(v, s, t, cfg) == oracle_reach(v, s, t)


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
            a = reach(g, s, t, EngineConfig(epsilon=eps, check_invariants=True))
            assert a.reachable == expect, (s, t, eps)


def test_differential_random_sweep():
    rng = SplitMix64(101)
    for n in (8, 12, 16, 24):
        for eps in (0.5, 1.0):
            for trial in range(25):
                p = (0.3, 0.5, 0.7)[trial % 3]
                g = gen_random(n, p, p, rng.next_u64())
                s = (rng.next_below(n + 1), rng.next_below(n + 1))
                t = (rng.next_below(n + 1), rng.next_below(n + 1))
                a = reach(g, s, t, EngineConfig(epsilon=eps, check_invariants=True))
                assert a.reachable == oracle_reach(whole(g), s, t), (n, eps, s, t)


def test_fixed_k_schedule():
    rng = SplitMix64(202)
    for trial in range(30):
        g = gen_random(16, 0.5, 0.5, rng.next_u64())
        s = (rng.next_below(17), rng.next_below(17))
        t = (rng.next_below(17), rng.next_below(17))
        a = reach(g, s, t, EngineConfig(k=4))
        assert a.metrics.k_top == 4
        assert a.reachable == oracle_reach(whole(g), s, t)


def test_explicit_base_side_max():
    rng = SplitMix64(203)
    for trial in range(20):
        g = gen_random(12, 0.5, 0.5, rng.next_u64())
        s = (rng.next_below(13), rng.next_below(13))
        t = (rng.next_below(13), rng.next_below(13))
        a = reach(g, s, t, EngineConfig(epsilon=1.0, base_side_max=6))
        assert a.reachable == oracle_reach(whole(g), s, t)


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
            a = reach(g, s, t, EngineConfig(epsilon=0.5, check_invariants=True))
            m = a.metrics
            assert m.stack_bound_violations == 0
            assert m.visit_once_violations == 0
            assert m.push_bound_violations == 0
            assert m.pops <= m.pushes


def test_every_pushed_vertex_is_reachable_from_source():
    """Soundness: the traversal only ever stands on vertices the source
    reaches (checked against the oracle at the top level)."""
    rng = SplitMix64(88)
    for trial in range(15):
        g = gen_random(12, 0.5, 0.5, rng.next_u64())
        s = (rng.next_below(13), rng.next_below(13))
        t = (rng.next_below(13), rng.next_below(13))
        m = Metrics()
        m.push_log = []
        from gridreach.engine import _Run, _reach
        _reach(whole(g), s, t, _Run(EngineConfig(epsilon=1.0), m), 0)
        for depth, w in m.push_log:
            if depth == 0:
                assert oracle_reach(whole(g), s, w), (s, w)


def test_marker_arrays_only_advance():
    """Every push is admitted by a marker that still points strictly below
    (vertical lines) or strictly right (horizontal lines) of the vertex,
    and updates only ever advance the markers."""
    rng = SplitMix64(99)
    p = AuxParams(12, 3)
    b = p.b

    for trial in range(10):
        g = whole(gen_random(12, 0.55, 0.55, rng.next_u64()))
        m = Metrics()
        m.push_log = []
        marker_dfs(p, g, (0, 0), (12, 12), _edge_oracle_from(g, p), m)
        av = {}
        ah = {}
        for _, w in m.push_log[1:]:  # the source is pushed unconditionally
            x, y = w
            admits_v = x % b == 0 and (x // b not in av or av[x // b][1] < y)
            admits_h = y % b == 0 and (y // b not in ah or ah[y // b][0] > x)
            assert admits_v or admits_h, w
            if x % b == 0 and (x // b not in av or av[x // b][1] < y):
                av[x // b] = w
            if y % b == 0 and (y // b not in ah or ah[y // b][0] > x):
                ah[y // b] = w


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


def test_check_mode_raises_on_violation():
    # sanity: a healthy run never raises
    g = gen_family("full", 16)
    reach(g, (0, 0), (16, 16), EngineConfig(epsilon=1.0, check_invariants=True))
    with pytest.raises(InvariantViolation):
        raise InvariantViolation("synthetic")
