import hashlib
import math

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

from gridreach.grid import (_GAMMA, _MIX1, _MIX2, _U64, FAMILIES, arc, arc_sweep, row_cosweep,
                            row_sweep)
from support import (lattice_reach, reference_arc_sweep, reference_emit_lgg,
                     reference_gen_random, reference_parse_lgg, reference_row_cosweep,
                     reference_row_sweep, view_chain, watch_windows, window_holds)


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


@st.composite
def family_graphs(draw, max_side=24):
    """A graph of any family, side 1 included."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=1, max_value=max_side))
    if family != "random":
        return gen_family(family, n)
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return gen_random(n, p, p, draw(st.integers(min_value=0, max_value=2**64 - 1)))


@pytest.mark.parametrize("family", FAMILIES)
def test_lgg_codec_matches_the_reference_at_side_one(family):
    g = gen_random(1, 0.5, 0.5, 3) if family == "random" else gen_family(family, 1)
    text = emit_lgg(g)
    assert text == reference_emit_lgg(g)
    assert parse_lgg(text) == reference_parse_lgg(text) == g


@given(family_graphs())
@settings(max_examples=150, deadline=None)
def test_lgg_codec_matches_the_per_character_reference(g):
    """emit_lgg builds each row from its two masks and parse_lgg reads it
    whole; both agree byte for byte with the per-character codec."""
    text = emit_lgg(g)
    assert text == reference_emit_lgg(g)
    assert parse_lgg(text) == reference_parse_lgg(text) == g


def _parsed(parse, text):
    """The graph parse reads from text, or its error's message and place."""
    try:
        return parse(text)
    except LggFormatError as e:
        return str(e), e.line, e.column


# Replacement cells: the legal ones (which may leave the lattice), ones
# int() accepts around or inside a digit string, line breaks and a
# non-ASCII letter.
_CELL_EDITS = st.sampled_from(list(".NEB") * 3 + list("x_ 1+-\n\r\t\u00e9"))


@given(family_graphs(max_side=10),
       st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                          st.integers(min_value=0, max_value=4), _CELL_EDITS),
                min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_lgg_parse_errors_match_the_per_character_reference(g, edits):
    """Canonical text with characters replaced, inserted or deleted, or
    with a cell of the right column or the top row replaced, parses to the
    reference's graph, or fails with its message, line and column."""
    text = emit_lgg(g)
    n = g.n
    for pos, kind, ch in edits:
        if kind >= 3:  # the cell where an edge may leave the lattice
            row, x = (1 + pos % (n + 1), n) if kind == 3 else (n + 1, pos % (n + 1))
            pos = sum(len(line) + 1 for line in text.split("\n")[:row]) + x
            kind = 0
        i = pos % (len(text) + 1)
        if kind == 0:
            text = text[:i] + ch + text[i + 1:]
        elif kind == 1:
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    assert _parsed(parse_lgg, text) == _parsed(reference_parse_lgg, text), text


# ---------------------------------------------------------------------------
# generators

def test_gen_random_determinism():
    a = emit_lgg(gen_random(8, 0.5, 0.5, seed=7))
    b = emit_lgg(gen_random(8, 0.5, 0.5, seed=7))
    assert a == b


# sha256 prefixes of emit_lgg(gen_random(n, p_north, p_east, seed)), taken
# from the generator that drew one float at a time.
GEN_RANDOM_DIGESTS = [
    ((16, 0.5, 0.5, 7), "e50f76152491daac"),
    ((16, 0.7, 0.7, 1), "aa9b3d03246b6e21"),
    ((512, 0.2, 0.2, 2), "5ade57f173d74679"),
    ((33, 0.3, 0.6, -5), "f95efb958360c0d5"),
    ((9, 0.5, 0.25, 2**64 + 3), "3293f557f21e8474"),
    ((1, 1.0, 0.0, 0), "cf2926627b9ac3c8"),
]


@pytest.mark.parametrize("args, digest", GEN_RANDOM_DIGESTS)
def test_gen_random_bytes_are_pinned(args, digest):
    text = emit_lgg(gen_random(*args))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# At these p, p * 2**53 is an integer, so the edge test's threshold is met
# exactly; one ulp either side checks its rounding.  Random seeds almost
# never draw the threshold itself: test_gen_random_ties_at_the_threshold
# forces it.
_EXACT = [0.0, 0.25, 0.5, 1.0]
_PROBS = st.one_of(
    st.sampled_from(_EXACT
                    + [math.nextafter(p, 0.0) for p in _EXACT if p > 0]
                    + [math.nextafter(p, 1.0) for p in _EXACT if p < 1]),
    st.floats(min_value=0.0, max_value=1.0),
)
_SEEDS = st.one_of(
    st.sampled_from([0, -1, -5, 2**63, 2**64 - 1, 2**64, 2**64 + 3, -2**64]),
    st.integers(min_value=-2**70, max_value=2**70),
)


@given(st.integers(min_value=1, max_value=40), _PROBS, _PROBS, _SEEDS)
@settings(max_examples=300, deadline=None)
def test_gen_random_matches_the_float_by_float_draws(n, p_north, p_east, seed):
    assert gen_random(n, p_north, p_east, seed) == reference_gen_random(
        n, p_north, p_east, seed)


def _seed_for_draw(u, j):
    """A seed whose SplitMix64 draw j (from 0) is u: the mix is invertible,
    xor-shifts by iteration and the odd multipliers by their inverses."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(u, 31)
    z = unshift(z * pow(_MIX2, -1, 2**64) & _U64, 27)
    z = unshift(z * pow(_MIX1, -1, 2**64) & _U64, 30)
    return (z - (j + 1) * _GAMMA) & _U64


@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_gen_random_ties_at_the_threshold(p, j):
    # At n=1 draws 0-3 are north (0,0), east (0,0), north (1,0) and the top
    # row's east (0,1).  Each is forced onto the threshold of p and around it.
    t = int(p * 2**53)
    for u in ((t << 11) - 1, t << 11, (t << 11) + 2047, (t + 1) << 11):
        seed = _seed_for_draw(u, j)
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(j + 1)][j] == u
        g = gen_random(1, p, p, seed)
        assert g == reference_gen_random(1, p, p, seed)
        edge = [g.north(0, 0), g.east(0, 0), g.north(1, 0), g.east(0, 1)][j]
        assert edge == ((u >> 11) * 2.0**-53 < p)


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
    return SubgridView.whole(g).sub(0, 0, -(-g.n // k) * k)


def _view_rows(view):
    return ([view.north_row(y) for y in range(view.side + 1)],
            [view.east_row(y) for y in range(view.side + 1)])


def test_pad_noop_when_divisible():
    g = gen_random(9, 0.5, 0.5, 1)
    padded = _padded(g, 3)
    assert (padded.side, padded.wx, padded.wy) == (9, 9, 9)
    assert _view_rows(padded) == _view_rows(SubgridView.whole(g))


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


@st.composite
def swept_rows(draw):
    """A graph drawn row mask by row mask, sparse or dense, with a reach
    mask and a row range to sweep."""
    n = draw(st.integers(min_value=1, max_value=70))
    full = (2 << n) - 1

    def mask(top):
        m = draw(st.integers(min_value=0, max_value=top))
        if draw(st.booleans()):  # long runs of edges
            m |= draw(st.integers(min_value=0, max_value=top))
        return m

    north = [mask(full) for _ in range(n)] + [0]
    east = [mask(full >> 1) for _ in range(n + 1)]
    y = draw(st.integers(min_value=0, max_value=n))
    ty = draw(st.integers(min_value=y, max_value=n))
    return LayeredGridGraph(n, north, east), mask(full), y, ty


@given(swept_rows())
@settings(max_examples=300, deadline=None)
def test_row_sweep_matches_the_per_bit_closure(case):
    """row_sweep closes each row in one carry step, over the east edges
    west of its cut; it equals the columns lattice_reached finds over the
    edges in columns up to the cut.  On the same cases, arc_sweep finds the
    vertex of its arc that lattice_reached finds first, for a whole arc or
    for the corner alone; and row_cosweep, from row ty down to row y,
    equals the closure that spreads one west step per pass.  The cut is
    drawn with the case: the lattice's east column, or a column between
    reach's lowest and it."""
    g, reach, y, ty = case
    view = SubgridView.whole(g)
    n = g.n
    lo = max(0, (reach & -reach).bit_length() - 1)
    cut = n if ty % 3 == 0 else lo + (ty - y) % (n + 1 - lo)
    swept = reach & (2 << cut) - 1  # the forward sweeps' reach: none east of the cut
    whole = (0, 0), (0, 0, n, n)
    assert row_sweep(view, swept, y, ty, cut) == reference_row_sweep(
        g, *whole, swept, y, ty, cut), cut
    # A whole arc up to the lattice's north row, or the corner alone on row ty.
    ey, y1, top = (n, n, swept) if y % 2 else (ty, ty, 1 << cut)
    assert arc_sweep(view, cut, y1, swept, y, ty, ey, top) == reference_arc_sweep(
        g, *whole, cut, y1, swept, y, ty, ey, top), (cut, y1, ey, top)
    span = ty - y  # lo and stop drawn with the case
    for lo, stop in ((0, 0), (span, 1 << span), (span, 1 << (span + n + 1) // 2)):
        assert row_cosweep(view, reach, ty, y, lo, stop) == reference_row_cosweep(
            view, reach, ty, y, lo, stop), (lo, stop)


def test_row_sweep_matches_the_per_bit_closure_on_view_chains():
    """The same on chains of sub views, padding ones among them, whose
    content windows include -1 (no column or row), 0 and the whole side,
    with cuts at the view's side and inside it, and arcs whose north row is
    the view's or lies below it."""
    rng = SplitMix64(43)

    def pick(lo, hi):
        return lo + rng.next_below(hi - lo + 1)

    windows = set()
    cases = set()
    for _ in range(600):
        n = 2 + rng.next_below(14)
        density = (0.3, 0.6, 0.9)[rng.next_below(3)]
        g = gen_random(n, density, density, rng.next_u64())
        view, origin, box = view_chain(g, pick(1, 4), pick)
        side = view.side
        full = (2 << side) - 1
        windows.update({-1: "-1", 0: "0", side: "side"}.get(w) for w in (view.wx, view.wy))
        for i in range(10):
            draw = rng.next_u64()
            reach = draw & full
            y = rng.next_below(side + 1)
            ty = y + rng.next_below(side - y + 1)
            # The forward sweeps' cut: the view's side, or a column drawn
            # with reach; their reach holds no column east of it.
            cut = side if i % 3 == 0 else (draw >> 40) % (side + 1)
            swept = reach & (2 << cut) - 1
            assert row_sweep(view, swept, y, ty, cut) == reference_row_sweep(
                g, origin, box, swept, y, ty, cut), (view, swept, y, ty, cut)
            cases.add("cut < side" if cut < side else "cut = side")
            # The backward sweep from row ty down to row y, inside columns
            # lo.., stopping at column lo or east of it, or nowhere.
            lo = pick(0, side) if i % 2 else 0
            stop = 1 << pick(lo, side) if i % 3 else 0
            got = row_cosweep(view, reach, ty, y, lo, stop)
            assert got == reference_row_cosweep(view, reach, ty, y, lo, stop), (
                view, reach, ty, y, lo, stop)
            cases.add(("lo > 0" if lo else "lo = 0", "stop" if got[1] & stop else
                       "emptied" if not got[1] else "row ty"))
            if i >= 2:
                continue
            # The arc of the block whose east column is the cut: its
            # east-column rows ty..ey-1, none where ey <= ty, and its
            # north-row columns: none, the corner alone, or drawn.  Its
            # north row is the view's, or the highest the sweep needs.
            ey = ty + rng.next_below(side - ty + 1)
            y1 = side if i == 0 else max(ey, y)
            kind = rng.next_below(4)
            top = (0, 1 << cut, swept, rng.next_u64() | 1 << cut)[kind] & (2 << cut) - 1
            got = arc_sweep(view, cut, y1, swept, y, ty, ey, top)
            assert got == reference_arc_sweep(g, origin, box, cut, y1, swept, y, ty, ey,
                                              top), (view, cut, y1, swept, y, ty, ey, top)
            cases.add(("no east rows" if ey <= ty else "east rows",
                       ("top = 0", "corner only", "drawn", "drawn")[kind],
                       None if got is None else "corner" if got == (cut, y1)
                       else "east" if got[0] == cut else "north"))
    assert {"-1", "0", "side"} <= windows
    assert {"cut < side", "cut = side"} <= cases, cases
    assert {(lo, end) for lo in ("lo = 0", "lo > 0")
            for end in ("stop", "emptied", "row ty")} <= cases, cases
    assert {("no east rows", "top = 0", None), ("east rows", "top = 0", None),
            ("east rows", "top = 0", "east"), ("no east rows", "corner only", None),
            ("no east rows", "corner only", "corner"), ("east rows", "corner only", None),
            ("no east rows", "drawn", "north"), ("east rows", "drawn", "north"),
            ("east rows", "drawn", "east")} <= cases, cases


def test_arc_runs_north_then_west():
    """arc yields the east-column rows ty..ey-1 of the block whose east
    column is x1 and north row y1, going north, then the north-row columns
    of top, the highest first, with bit x1 the corner between the two."""
    assert list(arc(4, 4, 1, 3, 0b10110)) == [(4, 1), (4, 2), (4, 4), (2, 4), (1, 4)]
    assert list(arc(4, 4, 3, 3, 0b00101)) == [(2, 4), (0, 4)]
    assert list(arc(4, 4, 4, 2, 0)) == []
    assert list(arc(7, 5, 3, 5, 0b11000000)) == [(7, 3), (7, 4), (7, 5), (6, 5)]


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
    padded = v.sub(0, 0, 6)
    assert padded.side == 6
    assert not padded.east(4, 0)  # beyond the content window
    assert padded.north(3, 3)
    beyond = padded.sub(5, 0, 1)  # wholly past the content window
    assert (beyond.wx, beyond.wy) == (-1, 1)
    assert not beyond.east(0, 0)
    assert not beyond.north(0, 0)


def test_whole_view_is_made_once_per_graph():
    """A graph makes its whole view when it is built, and whole hands out
    that one view: origin (0, 0), side and window n.  The view takes no part
    in a graph's equality or hash."""
    g = gen_random(12, 0.5, 0.5, 3)
    v = SubgridView.whole(g)
    assert SubgridView.whole(g) is v and v.base is g
    assert (v.ox, v.oy, v.side, v.wx, v.wy) == (0, 0, 12, 12, 12)
    assert window_holds(v)
    twin = LayeredGridGraph(12, [g.north_row(y) for y in range(13)],
                            [g.east_row(y) for y in range(13)])
    assert SubgridView.whole(twin) is not v
    assert twin == g and hash(twin) == hash(g)


def test_row_reads_match_the_edges_inside_the_window():
    """Every row read of a view, rows -1..side+1, equals the mask built bit
    by bit from the base graph's edge predicates inside the content box the
    chain cut (support.view_chain), on padded and clipped views and views
    wholly past the graph, so windows -1 and 0 occur."""
    rng = SplitMix64(47)

    def pick(lo, hi):
        return lo + rng.next_below(hi - lo + 1)

    windows = set()
    for _ in range(300):
        n = 2 + rng.next_below(12)
        density = (0.3, 0.6, 0.9)[rng.next_below(3)]
        g = gen_random(n, density, density, rng.next_u64())
        view, (ox, oy), (x0, y0, x1, y1) = view_chain(g, pick(1, 4), pick)
        side = view.side
        windows.update({-1: "-1", 0: "0", side: "side"}.get(w) for w in (view.wx, view.wy))
        xs = range(max(x0, ox), min(x1, ox + side) + 1)  # base columns in the box
        for y in range(-1, side + 2):
            by = oy + y
            north = east = 0
            if y0 <= by <= y1:
                for bx in xs:
                    if by < y1 and g.north(bx, by):
                        north |= 1 << (bx - ox)
                    if bx < x1 and g.east(bx, by):
                        east |= 1 << (bx - ox)
            assert view.north_row(y) == north, (view, y)
            assert view.east_row(y) == east, (view, y)
    assert {"-1", "0", "side"} <= windows


def test_oracle_matches_lattice_reach_on_view_chains(monkeypatch):
    """oracle_reach on chains of sub views, padding ones among them, agrees
    with a DFS over the base graph clipped to the box the subs cut out;
    padding adds no content.  Every view of the chains keeps the window
    invariant."""
    seen = watch_windows(monkeypatch)
    rng = SplitMix64(31)

    def pick(lo, hi):
        return lo + rng.next_below(hi - lo + 1)

    for _ in range(400):
        n = 4 + rng.next_below(13)
        density = (0.3, 0.6, 0.9)[rng.next_below(3)]
        g = gen_random(n, density, density, rng.next_u64())
        view, (ox, oy), box = view_chain(g, pick(1, 4), pick)
        side = view.side
        for _ in range(30):
            s = (rng.next_below(side + 1), rng.next_below(side + 1))
            t = (s[0] + rng.next_below(side - s[0] + 1),
                 s[1] + rng.next_below(side - s[1] + 1))
            expect = lattice_reach(g, box, (ox + s[0], oy + s[1]),
                                   (ox + t[0], oy + t[1]))
            assert oracle_reach(view, s, t) == expect, (view, box, s, t)
    assert sum(v.ox + v.side > v.base.n for v in seen) > 100  # past the graph


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
