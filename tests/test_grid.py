import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridreach import (
    LayeredGridGraph,
    LggFormatError,
    SplitMix64,
    SubgridView,
    emit_lgg,
    gen_family,
    gen_random,
    oracle_reach,
    parse_lgg,
)


@st.composite
def graphs(draw, max_side=12):
    n = draw(st.integers(min_value=1, max_value=max_side))
    p_n = draw(st.floats(min_value=0.0, max_value=1.0))
    p_e = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return gen_random(n, p_n, p_e, seed)


# ---------------------------------------------------------------------------
# parse / emit

def test_parse_empty_2x2():
    g = parse_lgg("lgg 1 1\n..\n..\n")
    assert g.n == 1
    assert g.edge_count == 0


def test_parse_small_with_edges():
    g = parse_lgg("lgg 1 1\nB.\nE.\n")
    assert g.north(0, 0) and g.east(0, 0)
    assert g.east(0, 1)
    assert not g.north(1, 0)
    assert g.edge_count == 3


def test_parse_row_count_mismatch():
    with pytest.raises(LggFormatError):
        parse_lgg("lgg 1 1\nN.\n")


def test_parse_errors_carry_line_and_column():
    with pytest.raises(LggFormatError) as ei:
        parse_lgg("lgg 1 1\n.x\n..\n")
    assert ei.value.line == 2
    assert ei.value.column == 2

    with pytest.raises(LggFormatError) as ei:
        parse_lgg("lgg 1 1\n..\nN.\n")  # north in top row
    assert ei.value.line == 3

    with pytest.raises(LggFormatError) as ei:
        parse_lgg("lgg 1 1\n.E\n..\n")  # east in right column
    assert (ei.value.line, ei.value.column) == (2, 2)

    with pytest.raises(LggFormatError) as ei:
        parse_lgg("lgg 2 1\n..\n..\n")
    assert ei.value.line == 1

    with pytest.raises(LggFormatError):
        parse_lgg("lgg 1 1\n...\n..\n")  # row too long


def test_emit_empty_and_full_n1():
    assert emit_lgg(gen_family("empty", 1)) == "lgg 1 1\n..\n..\n"
    # all 2*n*(n+1) legal edges: north at (0,0),(1,0); east at (0,0),(0,1)
    assert emit_lgg(gen_family("full", 1)) == "lgg 1 1\nBN\nE.\n"


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_round_trip(g):
    assert parse_lgg(emit_lgg(g)) == g


@given(graphs(max_side=8))
@settings(max_examples=30, deadline=None)
def test_emit_of_parse_is_identity_on_canonical_text(g):
    text = emit_lgg(g)
    assert emit_lgg(parse_lgg(text)) == text


# ---------------------------------------------------------------------------
# generators

def test_gen_random_determinism():
    a = emit_lgg(gen_random(8, 0.5, 0.5, seed=7))
    b = emit_lgg(gen_random(8, 0.5, 0.5, seed=7))
    assert a == b


def test_gen_random_extremes():
    assert gen_random(4, 1.0, 1.0, 3) == gen_family("full", 4)
    assert gen_random(4, 0.0, 0.0, 3) == gen_family("empty", 4)


def test_gen_random_rejects_bad_probability():
    with pytest.raises(ValueError):
        gen_random(4, 1.5, 0.5, 0)


def test_family_full_edge_count():
    # 2 * n * (n+1) legal edges
    assert gen_family("full", 2).edge_count == 12
    assert gen_family("full", 9).edge_count == 180


def test_family_staircase():
    g = gen_family("staircase", 2)
    assert g.edge_count == 4
    assert g.east(0, 0) and g.north(1, 0) and g.east(1, 1) and g.north(2, 1)


def test_family_single_path_reaches_far_corner():
    for n in (1, 2, 5, 9, 16):
        g = gen_family("single_path", n)
        assert g.edge_count == 2 * n
        assert oracle_reach(SubgridView.whole(g), (0, 0), (n, n))


def test_family_unknown_name():
    with pytest.raises(ValueError):
        gen_family("nosuch", 4)


def test_splitmix_is_stable():
    rng = SplitMix64(0)
    assert rng.next_u64() == 16294208416658607535


# ---------------------------------------------------------------------------
# padding

def _padded(g, k):
    """The engine's padding: the whole view, addressable out to the next
    multiple of k."""
    return SubgridView.whole(g).padded(-(-g.n // k) * k)


def _view_rows(view):
    return ([view.north_row(y) for y in range(view.side + 1)],
            [view.east_row(y) for y in range(view.side + 1)])


def test_pad_noop_when_divisible():
    g = gen_random(9, 0.5, 0.5, 1)
    padded = _padded(g, 3)
    assert (padded.side, padded.wx, padded.wy) == (9, 9, 9)
    assert _view_rows(padded) == _view_rows(SubgridView.whole(g))
    with pytest.raises(ValueError):
        SubgridView.whole(g).padded(8)


def test_pad_grows_and_keeps_content():
    g = gen_random(10, 0.5, 0.5, 2)
    padded = _padded(g, 4)
    assert padded.side == 12
    for y in range(11):
        assert padded.north_row(y) == g.north_row(y)
        assert padded.east_row(y) == g.east_row(y)
    # the added rows and columns carry no edges, and nothing enters them
    for y in range(11, 13):
        assert padded.north_row(y) == 0
        assert padded.east_row(y) == 0
    north, east = _view_rows(padded)
    assert sum(m.bit_count() for m in north + east) == g.edge_count


@given(graphs(max_side=10), st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pad_preserves_reachability(g, k):
    pwhole = _padded(g, k)
    rng = SplitMix64(g.n * 1000 + k)
    whole = SubgridView.whole(g)
    for _ in range(10):
        s = (rng.next_below(g.n + 1), rng.next_below(g.n + 1))
        t = (rng.next_below(g.n + 1), rng.next_below(g.n + 1))
        assert oracle_reach(whole, s, t) == oracle_reach(pwhole, s, t)


# ---------------------------------------------------------------------------
# oracle

def test_oracle_trivia():
    g = gen_family("full", 5)
    v = SubgridView.whole(g)
    assert oracle_reach(v, (0, 0), (5, 5))
    assert oracle_reach(v, (3, 2), (3, 2))
    assert not oracle_reach(v, (3, 2), (2, 2))
    assert not oracle_reach(v, (3, 2), (3, 1))
    e = SubgridView.whole(gen_family("empty", 5))
    assert not oracle_reach(e, (0, 0), (1, 1))


def test_oracle_rejects_out_of_view():
    g = gen_family("full", 4)
    with pytest.raises(ValueError):
        oracle_reach(SubgridView.whole(g), (0, 0), (5, 5))


def _with_extra_edge(g, rng):
    """Add one random legal edge; returns None if the graph is full."""
    n = g.n
    north = [g.north_row(y) for y in range(n + 1)]
    east = [g.east_row(y) for y in range(n + 1)]
    for _ in range(4 * (n + 1) * (n + 1)):
        x = rng.next_below(n + 1)
        y = rng.next_below(n + 1)
        if rng.next_below(2) == 0 and y < n and not (north[y] >> x) & 1:
            north[y] |= 1 << x
            return LayeredGridGraph(n, north, east)
        if x < n and not (east[y] >> x) & 1:
            east[y] |= 1 << x
            return LayeredGridGraph(n, north, east)
    return None


@given(graphs(max_side=8), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_oracle_monotone_under_edge_addition(g, seed):
    rng = SplitMix64(seed)
    bigger = _with_extra_edge(g, rng)
    if bigger is None:
        return
    for _ in range(8):
        s = (rng.next_below(g.n + 1), rng.next_below(g.n + 1))
        t = (rng.next_below(g.n + 1), rng.next_below(g.n + 1))
        before = oracle_reach(SubgridView.whole(g), s, t)
        after = oracle_reach(SubgridView.whole(bigger), s, t)
        assert after or not before  # adding an edge never flips true -> false


# ---------------------------------------------------------------------------
# views

def test_view_clips_edges_at_window():
    g = gen_family("full", 8)
    v = SubgridView.whole(g).sub(2, 2, 4)
    assert v.north(0, 0) and v.east(3, 4)
    assert not v.east(4, 0)   # would leave the window
    assert not v.north(0, 4)
    padded = v.padded(6)
    assert padded.side == 6
    assert not padded.east(4, 0)  # beyond the content window
    assert padded.north(3, 3)
    beyond = padded.sub(5, 0, 1)  # wholly past the content window
    assert (beyond.wx, beyond.wy) == (0, 1)
    assert not beyond.east(0, 0)


def test_view_oracle_matches_manual_subgrid():
    g = gen_random(10, 0.4, 0.6, 5)
    v = SubgridView.whole(g).sub(3, 2, 5)
    rng = SplitMix64(17)
    for _ in range(40):
        s = (rng.next_below(6), rng.next_below(6))
        t = (rng.next_below(6), rng.next_below(6))
        got = oracle_reach(v, s, t)
        # independent check: BFS on explicitly translated edges
        seen = {s}
        frontier = [s]
        while frontier:
            x, y = frontier.pop()
            for nxt, ok in (((x + 1, y), v.east(x, y)), ((x, y + 1), v.north(x, y))):
                if ok and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert got == (t in seen)


def test_graph_representation_cannot_leave_lattice():
    with pytest.raises(ValueError):
        LayeredGridGraph(2, [0, 0, 1], [0, 0, 0])    # north out of top row
    with pytest.raises(ValueError):
        LayeredGridGraph(2, [0, 0, 0], [4, 0, 0])    # east out of right column
