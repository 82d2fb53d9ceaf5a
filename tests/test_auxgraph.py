import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridreach import (
    AuxParams,
    EngineConfig,
    LayeredGridGraph,
    SplitMix64,
    SubgridView,
    gen_family,
    gen_random,
    is_gridline_vertex,
    oracle_reach,
    reach,
    straight_walk,
)
from gridreach import engine
from gridreach.auxgraph import iter_candidates

from support import (
    admissible,
    brute_boundary_edges,
    common_blocks,
    gridline_vertices,
    is_edge,
)

P93 = AuxParams(9, 3)


def _lids(p, v):
    """1-based ids, west-to-east then south-to-north, of the blocks holding v."""
    return sorted(by * p.k + bx + 1 for bx, by in common_blocks(p, v, v))


def _engine_edge_test(g):
    """The edge rule the engine hands marker_dfs at the top level of the
    corner query on a side-9 graph (k = 3 at epsilon 1).  Its endpoints are
    lattice corners, so the endpoint augmentation adds no edge."""
    captured = []

    def capture(p, view, u, v, edge_test, *args, **kw):
        captured.append((p, edge_test))
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "marker_dfs", capture)
        reach(g, (0, 0), (9, 9), EngineConfig(epsilon=1.0))
    (p, edge_test), = captured
    assert p == P93
    return edge_test


# ---------------------------------------------------------------------------
# decomposition geometry

def test_on_gridlines():
    assert is_gridline_vertex(P93, (3, 5))
    assert is_gridline_vertex(P93, (3, 3))
    assert not is_gridline_vertex(P93, (1, 2))
    assert is_gridline_vertex(P93, (0, 0))
    assert is_gridline_vertex(P93, (9, 9))
    assert is_gridline_vertex(P93, (4, 6))


def test_blocks_of():
    assert _lids(P93, (1, 1)) == [1]
    assert _lids(P93, (3, 1)) == [1, 2]
    assert _lids(P93, (3, 3)) == [1, 2, 4, 5]
    assert _lids(P93, (9, 9)) == [9]
    assert common_blocks(P93, (1, 1), (1, 1)) == [(0, 0)]


def test_aux_params_validation():
    with pytest.raises(ValueError):
        AuxParams(10, 3)
    with pytest.raises(ValueError):
        AuxParams(9, 1)


# ---------------------------------------------------------------------------
# edge rule, as the engine applies it

def test_h_edge_examples_on_full_grid():
    edge = _engine_edge_test(gen_family("full", 9))
    assert edge((0, 0), (3, 2))
    # same vertical gridline, not corners: excluded no matter the paths
    assert not edge((3, 1), (3, 2))
    # corners of one block on its two parallel horizontal boundaries
    assert edge((0, 0), (0, 3))
    assert edge((0, 0), (3, 0))
    assert edge((3, 0), (3, 3))
    # corners of different blocks two lines apart: no shared block
    assert not edge((0, 0), (6, 0))


def test_h_edge_requires_gridline_vertices():
    """Edge tests only ever see gridline vertices: every candidate is one,
    and lies north-east of the current vertex."""
    for curr in [(x, y) for y in range(10) for x in range(10)]:
        for _, w in iter_candidates(P93, curr):
            assert is_gridline_vertex(P93, w), (curr, w)
            assert w != curr and w[0] >= curr[0] and w[1] >= curr[1]


def test_h_edge_needs_a_path():
    # the full grid with every edge of block (0, 0) removed
    full = gen_family("full", 9)
    north = [full.north_row(y) & ~0b1111 if y < 3 else full.north_row(y)
             for y in range(10)]
    east = [full.east_row(y) & ~0b111 if y <= 3 else full.east_row(y)
            for y in range(10)]
    g = LayeredGridGraph(9, north, east)
    edge = _engine_edge_test(g)
    assert not edge((0, 0), (3, 2))
    assert not is_edge(P93, SubgridView.whole(g), (0, 0), (3, 2))
    assert edge((3, 3), (6, 5))


# ---------------------------------------------------------------------------
# neighbor enumeration

def _ccw_key(curr, w):
    """Independent ordering oracle: angle from due east, then L-inf, then lex."""
    dx, dy = w[0] - curr[0], w[1] - curr[1]
    return (math.atan2(dy, dx), max(dx, dy), w)


def _neighbors(p, g, curr):
    """One pass of the candidates, filtered by the reference edge rule."""
    return [w for _, w in iter_candidates(p, curr) if is_edge(p, g, curr, w)]


def _candidate_edges(p, g):
    """The boundary-graph edge list as the engine enumerates it."""
    return sorted((u, w) for u in gridline_vertices(p) for w in _neighbors(p, g, u))


def test_next_neighbor_first_is_due_east_nearest():
    g = SubgridView.whole(gen_family("full", 9))
    assert _neighbors(P93, g, (0, 0))[0] == (3, 0)


def test_next_neighbor_exhausts_and_matches_brute_force_order():
    rng = SplitMix64(55)
    for trial in range(12):
        g = SubgridView.whole(gen_random(9, 0.55, 0.55, rng.next_u64()))
        edges = brute_boundary_edges(P93, g)
        for curr in [(0, 0), (3, 0), (3, 3), (1, 0), (0, 6), (6, 3)]:
            expect = sorted((w for u, w in edges if u == curr),
                            key=lambda w: _ccw_key(curr, w))
            assert _neighbors(P93, g, curr) == expect


def test_next_neighbor_empty_graph():
    g = SubgridView.whole(gen_family("empty", 9))
    assert _neighbors(P93, g, (0, 0)) == []


def test_candidate_enumeration_is_bounded_per_block():
    for curr in [(0, 0), (3, 3), (1, 0), (3, 1), (9, 9), (4, 6)]:
        n_blocks = len(common_blocks(P93, curr, curr))
        emitted = list(iter_candidates(P93, curr))
        assert len(emitted) <= (4 * P93.b + 4) * n_blocks
        keys = [k for k, _ in emitted]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# straight walk

def test_straight_walk_examples():
    g = SubgridView.whole(gen_family("full", 9))
    assert straight_walk(g, (2, 0), (2, 7))
    assert not straight_walk(g, (2, 7), (2, 0))
    assert straight_walk(g, (0, 4), (8, 4))
    assert straight_walk(g, (5, 5), (5, 5))
    with pytest.raises(ValueError):
        straight_walk(g, (0, 0), (1, 2))


def test_straight_walk_broken_column():
    g = gen_family("full", 9)
    north = [g.north_row(y) for y in range(10)]
    north[4] &= ~(1 << 2)  # remove (2,4) -> (2,5)
    broken = SubgridView.whole(type(g)(9, north, [g.east_row(y) for y in range(10)]))
    assert not straight_walk(broken, (2, 0), (2, 7))
    assert straight_walk(broken, (2, 0), (2, 4))


@given(st.integers(min_value=0, max_value=2**32), st.floats(0.2, 0.9))
@settings(max_examples=30, deadline=None)
def test_straight_walk_agrees_with_oracle(seed, p):
    g = SubgridView.whole(gen_random(8, p, p, seed))
    for x in range(9):
        for y0 in range(9):
            for y1 in range(9):
                assert straight_walk(g, (x, y0), (x, y1)) == oracle_reach(
                    g, (x, y0), (x, y1))
    for y in range(9):
        for x0 in range(9):
            for x1 in range(9):
                assert straight_walk(g, (x0, y), (x1, y)) == oracle_reach(
                    g, (x0, y), (x1, y))


# ---------------------------------------------------------------------------
# the candidates cover the boundary graph

def test_explicit_h_empty():
    g = SubgridView.whole(gen_family("empty", 9))
    assert _candidate_edges(P93, g) == []


def test_explicit_h_full_matches_brute_force():
    g = SubgridView.whole(gen_family("full", 9))
    got = _candidate_edges(P93, g)
    assert got == brute_boundary_edges(P93, g)
    # on the full grid every admissible north-east pair with a shared block
    # is an edge
    for u, v in got:
        assert v[0] >= u[0] and v[1] >= u[1]
        assert admissible(P93, u, v)


def test_explicit_h_random_self_consistent_with_h_edge():
    rng = SplitMix64(77)
    for _ in range(6):
        g = gen_random(9, 0.5, 0.5, rng.next_u64())
        view = SubgridView.whole(g)
        assert _candidate_edges(P93, view) == brute_boundary_edges(P93, view)
        # the engine's edge rule agrees with the reference on every pair
        edge = _engine_edge_test(g)
        vh = gridline_vertices(P93)
        for u in vh:
            for w in vh:
                if w != u and w[0] >= u[0] and w[1] >= u[1]:
                    assert edge(u, w) == is_edge(P93, view, u, w), (u, w)


# ---------------------------------------------------------------------------
# structural properties, module scale

def test_crossing_property_random_blocks():
    from support import crossing_check

    rng = SplitMix64(303)
    total = 0
    for _ in range(40):
        g = gen_random(8, 0.5, 0.5, rng.next_u64())
        checked, bad = crossing_check(SubgridView.whole(g))
        assert bad == []
        total += checked
    assert total > 0


def test_h_equivalence_module_scale():
    """Boundary pairs on different gridlines or in different blocks agree
    with the oracle once the endpoint augmentation is included."""
    from support import BoundaryReachability, gridline_vertices

    rng = SplitMix64(404)
    p = AuxParams(12, 3)
    for _ in range(8):
        g = SubgridView.whole(gen_random(12, 0.5, 0.5, rng.next_u64()))
        hr = BoundaryReachability(p, g)
        vh = gridline_vertices(p)
        from support import common_blocks
        checked = 0
        for u in vh:
            for v in vh:
                if u == v:
                    continue
                share_line = (u[0] == v[0] and u[0] % p.b == 0) or (
                    u[1] == v[1] and u[1] % p.b == 0)
                share_block = bool(common_blocks(p, u, v))
                if share_line and share_block:
                    continue  # same-line in-block pairs are out of scope
                assert hr.query(u, v) == oracle_reach(g, u, v)
                checked += 1
        assert checked > 0
