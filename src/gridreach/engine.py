"""Space-bounded reachability engine.

reach is the one query entry point.  It answers a query on a view by
dispatching, in order: equal endpoints; impossible (west/south)
displacement; shared row or column (straight walk); small side (the
oracle's row sweep); both endpoints in one block (auxgraph.ne_corner,
the block rule), a query on that block; the entry check (_enters), one
backward sweep of the target's block (grid.row_cosweep) that answers NO
where no path can enter that block and reach the target; otherwise it
divides the view into k^2 blocks and runs a marker-array DFS over the
implicit boundary graph, deciding each edge by recursing into the block
the rule finds.  A block query goes through the same dispatch, so below
the top level a query off a common row and column goes straight to its
base case, its shared block or its entry check.  A DFS frame is its run
(_run), one generator at every divided level, which first decides the
edge into the target, where the target lies in the frame's block, and
then walks the frame's candidates, skipping those the markers rule out.
A frame holds no view: it reads its block from the level's view, in the
level's coordinates.  The two candidates on the frame's own row and
column, and a target there, need no recursion: a path to them runs
straight, so the frame decides them itself, by the gridline rule and a
straight walk between the two (_line_edge).  One run, two probes: for
the other pairs, in whole stretches of admitted candidates, the run asks
its probe for the first joined vertex.  Above the last divided level the
probe is the edge test, a recursion per vertex; at the last divided
level, where that recursion would end in one base-case row sweep per
edge, it is one forward sweep of the frame's block per visit
(grid.arc_sweep), charged as one base case.  A frame's sweeps start at
its own column, their origin, and are cut at the column they ask about
(grid.row_sweep), so they never spread past the block's east column, and
each of their masks is an int of at most b+1 bits, bit i for column
cx+i, however wide the level's view is.

The marker arrays hold, per vertical gridline, the topmost vertex pushed
so far, and per horizontal gridline the leftmost; they take the place of
a visited set.  A search keeps them only for the gridlines of its
target's box (below), one entry per gridline, and the level is charged
for those entries alone: at most 2(k+1), on a box that spans the
lattice.  A candidate's edge is tested, and the candidate pushed, only
when one of its lines still admits it, so a candidate the markers reject
costs no recursion.  Neighbors are cycled in counter-clockwise
order starting due east, so lower and righter targets are explored first
and the skip rule never hides a reachable vertex.  The stack then never
holds more than 2k+1 frames (2k+3 when an endpoint is block-interior and
enters through augmented edges).

Every run is cut to the target's box: a DFS whose target is v never asks
about a vertex w with w.x > v.x or w.y > v.y, because no monotone path
leads from such a vertex back to v.  The pruned search is the unchanged
search on G_B, the graph G with every edge that leaves [0..v.x]x[0..v.y]
deleted: in G_B every edge test into a vertex outside the box is False,
and every edge test between two vertices inside it equals the one in G,
since a monotone path between them stays in the box.  G_B is itself a
layered grid graph, so the marker argument, the stack bound, visit-once
and the push bound hold as they are, and the word and call bounds do not
move.  Each level's DFS has its own v, so each level has its own box.
Every vertex it pushes, and every candidate whose markers it reads, lies
in [u, v], so it never reads or moves the marker of a gridline outside
the box, and holds none (auxgraph.box_gridlines).

Two details extend the block-boundary edge rule at the query endpoints:
an endpoint lying strictly inside a block is joined to every boundary
vertex of that block it can reach (leave, for the target); and an endpoint
lying on a gridline is additionally joined to the block corners on its own
line.  Without the corner augmentation, a path that crawls along a
gridline through a block crossing has no image in the boundary graph and
queries like (1,0) -> (5,3) on a bottom-row-plus-column instance would be
missed.  Only endpoint edges are extended; interior edges keep the strict
rule, which is what bounds the stack depth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .auxgraph import (AuxParams, box_gridlines, decompose, is_base_side,
                       is_gridline_vertex, ne_corner)
# Not called here: perfbench/spans.py patches this binding to time the
# enumeration, and perfbench/test_smoke.py checks that its tracer restores it.
from .auxgraph import iter_candidates  # noqa: F401
from .grid import (LayeredGridGraph, SubgridView, Vertex, arc, arc_sweep, oracle_reach,
                   row_cosweep, row_sweep)
from .metrics import Metrics, base_charge, level_charge


@dataclass(frozen=True)
class EngineConfig:
    """The divisor schedule: exactly one of ``epsilon`` and ``k``.

    With epsilon, k = clamp(round(n^(eps/2)), 2, n) is computed once from the
    top side n; with k, that divisor is given.  Either way the same k is
    reused at every level, and a side of at most k is the base case.
    """

    epsilon: float | None = None
    k: int | None = None

    def __post_init__(self):
        if (self.epsilon is None) == (self.k is None):
            raise ValueError("exactly one of epsilon and k must be given")
        if self.epsilon is not None and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.k is not None and self.k < 2:
            raise ValueError("k must be >= 2")


@dataclass(slots=True)
class Answer:
    reachable: bool
    metrics: Metrics


def choose_k(side: int, epsilon: float) -> int:
    """Divisor schedule k = clamp(round(side^(eps/2)), 2, side); rounding is
    half away from zero."""
    if side < 2:
        raise ValueError("side must be >= 2")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    k = math.floor(side ** (epsilon / 2.0) + 0.5)
    return max(2, min(k, side))


@functools.lru_cache(maxsize=1024)
def _schedule(side: int, epsilon: float | None,
              k: int | None) -> tuple[int, tuple[AuxParams | None, ...]]:
    """A query's divisor k and its decomposition at every depth, for an
    EngineConfig's epsilon and k.

    k is the given one clamped to the side, or choose_k(side, epsilon); a
    side below 2 keeps the given k, or 2.  The levels are decompose(side,
    k).  Cached, because the dispatch-only queries would otherwise pay for
    building the AuxParams; the key holds the config's two fields, not the
    config, whose generated __hash__ would run on every query.
    """
    if k is not None:
        k = min(k, side) if side >= 2 else k
    else:
        k = choose_k(side, epsilon) if side >= 2 else 2
    return k, decompose(side, k)


def base_dfs(view: SubgridView, u: Vertex, v: Vertex, metrics: Metrics) -> bool:
    """The recursion's base case: the oracle's row sweep on a small block.

    The sweep holds one (side+1)-bit reach mask plus its locals; see
    metrics.base_charge.
    """
    metrics.base_case_calls += 1
    metrics.hold(base_charge(view.side, view.base.n))
    return oracle_reach(view, u, v)


def _gridline_rule(b: int, u: Vertex, v: Vertex, curr: Vertex, w: Vertex) -> bool:
    """The gridline edge rule of a (u, v) search, for w north-east of curr:
    False where the two share a gridline and the rule does not join them,
    True where a path inside their block decides the edge.

    Two vertices on one gridline are joined only where both are block
    corners, where curr is a corner and w is the target v, or where curr is
    the source u and w is a corner (the endpoint augmentation of the module
    docstring).
    """
    cx, cy = curr
    wx, wy = w
    if (wx == cx and cx % b == 0) or (wy == cy and cy % b == 0):
        w_corner = wx % b == 0 and wy % b == 0
        return ((cx % b == 0 and cy % b == 0 and (w_corner or w == v))
                or (w_corner and curr == u))
    return True


def _admits(b: int, av: list[int], ah: list[int], i0: int, j0: int,
            wx: int, wy: int) -> tuple[bool, bool]:
    """The marker rule for candidate w in the search's box: (its vertical
    line admits it, its horizontal line admits it).

    av[i - i0] is the y of the topmost vertex pushed on vertical gridline
    i (-1 while there is none), ah[j - j0] the x of the leftmost on
    horizontal gridline j (past the lattice while there is none); i0 and
    j0 are the box's first gridlines.  A vertical line admits w while its
    marker lies strictly below w, a horizontal one while its marker lies
    strictly right of w.
    """
    return (wx % b == 0 and av[wx // b - i0] < wy,
            wy % b == 0 and ah[wy // b - j0] > wx)


def _line_edge(g: SubgridView, b: int, u: Vertex, v: Vertex, curr: Vertex, w: Vertex,
               m: Metrics, depth: int) -> bool:
    """The edge from curr to w, north-east of it on its row or column in
    curr's block: one edge query, the gridline rule (_gridline_rule, which
    needs the source u and the target v), then, where the rule joins them,
    a straight walk on the level's view g, counted as the call at depth+1
    that an edge test's recursion into the block would make.  The walk
    needs no block view: it reads only the edges between curr and w, all
    inside the block.  At every level, frames decide their own-line
    candidates and a target on their row or column here."""
    m.edge_queries += 1
    if not _gridline_rule(b, u, v, curr, w):
        return False
    m.note_call(depth + 1)
    return _straight(g, curr[0], curr[1], w[0], w[1], m)


def _run(p: AuxParams, g: SubgridView, curr: Vertex, v: Vertex, av: list[int],
         ah: list[int], edge_test, m: Metrics, depth: int, u: Vertex, i0: int, j0: int,
         words: int):
    """A marker-DFS frame at curr: yield v if curr is joined to it, then the
    candidates of curr's run that the markers admit and that are joined to
    curr, in run order, skipping v.  The generator is the frame: it holds
    the frame's vertex and its cursor, the resume slot, between visits, and
    no view: it reads its block from the level's view g, in g's
    coordinates.

    The run is the east column x1 of curr's north-eastmost block
    (auxgraph.ne_corner) going north, then its north row y1 going west, cut
    to v's box, which the module docstring shows sound: it asks about no
    vertex east or north of v.  The target comes first, where it lies
    north-east of curr in that block, whatever the markers say: a target
    sitting below a marker must still be recognized.  Yielding v ends the
    search, so nothing is held across that yield.  The target on curr's
    row or column, and the two candidates there, (x1, cy) and (cx, y1),
    where a marker admits them, are decided by _line_edge.  The run reads
    the east column's marker only where that column lies in v's box, and
    the north row's only where that row does: the arrays hold no others
    (marker_dfs).

    For the other candidates, each visit (the entry, and each return after
    a pop) cuts the stretch the markers admit: the east-column rows above
    the cursor and the vertical marker, the corner (admitted by either
    marker), and the north-row columns left of the cursor and of the
    horizontal marker, v excluded.  The markers move only between visits,
    so the stretch holds for the whole visit, which yields its first
    joined vertex in run order.  The cursor moves past each hit, and a
    visit that finds none ends the stretch.

    The stretch is kept as an arc (grid.arc): its east-column rows
    ty..ey-1 and its north-row columns as a mask, top, relative to the
    frame's column (bit i is column cx+i), whose bit x1-cx is the corner,
    so no local a frame keeps across a yield is wider than its block.  The
    probe, for the stretch and for a target off curr's row and column, is
    the level's.  Above the last divided level, edge_test decides each
    vertex of the arc in run order, up to the first True.  At the last,
    marker_dfs hands None, and the gridline rule joins every such pair: the
    target is one row sweep from curr to v's row cut at v's column
    (grid.row_sweep), reading v's bit, and the stretch one forward sweep
    from curr per visit cut at x1 (grid.arc_sweep), which never sweeps a
    row above v.  The cuts keep each sweep inside curr's block: its origin
    is column cx, it spreads only east and stops at the cut, and it reads
    no row above y1.  Each sweep counts one call at depth+1 and one base
    case (the target's also one edge query) and holds words, base_charge(b,
    n), in one peak update (Metrics.hold), never across a yield.
    """
    b = p.b
    cx, cy = curr
    vx, vy = v
    if cx > vx or cy > vy:
        return  # curr lies outside the box, and so does all north-east of it
    x1, y1 = ne_corner(p, curr)
    if vx <= x1 and vy <= y1 and curr != v:  # v lies in curr's block
        if vx == cx or vy == cy:
            if _line_edge(g, b, u, v, curr, v, m, depth):
                yield v
        elif edge_test is not None:
            if edge_test(curr, v):
                yield v
        else:  # off curr's row and column the gridline rule joins the pair
            m.edge_queries += 1
            m.note_call(depth + 1)
            m.base_case_calls += 1
            m.hold(words)
            if (row_sweep(g, cx, 1, cy, vy, vx) >> (vx - cx)) & 1:
                yield v
    east = vx >= x1  # the east column lies in the box
    north = vy >= y1  # the north row lies in the box
    if not (east or north):
        return
    if cx < x1 and east:
        w = (x1, cy)
        if (w != v and any(_admits(b, av, ah, i0, j0, x1, cy))
                and _line_edge(g, b, u, v, curr, w, m, depth)):
            yield w
    if cx < x1 and cy < y1:
        i = x1 // b - i0  # the markers of the east column and the north
        j = y1 // b - j0  # row, read only where that line lies in the box
        # The box: the east-column rows below ey, the corner (the north
        # row's bit x1 - cx, origin cx; 0 where it lies outside), the
        # north-row columns up to ex.  Where v lies beyond the block on
        # both axes, that is the whole run.
        if vx > x1 and vy > y1:
            ey = y1
            ex = x1
            corner = 1 << (x1 - cx)
        else:  # up to v's row and column, v excluded
            ey = min(vy + (vx > x1), y1) if east else 0
            corner = 1 << (x1 - cx) if east and north and vx + vy > x1 + y1 else 0
            ex = vx - (vy == y1) if north else cx
        y = cy + 1  # cursor: the next east-column row (y1 is the corner)
        x = x1 - 1  # and the next north-row column
        while True:  # one pass per visit; the markers hold still during it
            ty = max(y, av[i] + 1) if east else ey  # rows above the marker
            hi = min(x, ah[j] - 1, ex) if north else cx  # cursor, marker, box
            top = (2 << (hi - cx)) - 2 if hi > cx else 0  # columns cx+1 .. hi
            if corner and y <= y1 and (av[i] < y1 or ah[j] > x1):
                top |= corner  # admitted by either marker
            if ty >= ey and not top:
                break
            if edge_test is None:  # one frame sweep
                m.note_call(depth + 1)
                m.base_case_calls += 1
                m.hold(words)
                hit = arc_sweep(g, cx, x1, y1, 1, cy, ty, ey, top)
                if hit is None:
                    break
            else:  # one edge test per vertex, in run order
                for hit in arc(cx, x1, y1, ty, ey, top):
                    if edge_test(curr, hit):
                        break
                else:
                    break
            yield hit
            x, y = hit
            y += 1  # past the hit: y1 + 1 once the corner is done
            x -= 1  # x1 - 1 until a north-row hit
    if cy < y1 and north:
        w = (cx, y1)
        if (w != v and any(_admits(b, av, ah, i0, j0, cx, y1))
                and _line_edge(g, b, u, v, curr, w, m, depth)):
            yield w


def marker_dfs(p: AuxParams, g: SubgridView, u: Vertex, v: Vertex, edge_test,
               metrics: Metrics, depth: int = 0) -> bool:
    """Marker-array DFS over the implicit boundary graph.

    edge_test(curr, w) decides edge membership (recursing into blocks as it
    sees fit) for the target and the candidates strictly north-east of the
    frame's vertex.  The two candidates on the vertex's own row and column,
    and a target there, are decided by the run itself, by the gridline
    rule and a straight walk in g, so edge_test must agree with that rule.
    The stack holds the frames, and a frame is its run: the generator of
    its vertex (_run), which yields the target first if the vertex is
    joined to it, then its candidates lazily in counter-clockwise order,
    skipping v.  Each generator keeps its cursor, so returning to a
    frame resumes strictly past the child it just popped.  The markers gate
    the edges: a candidate that neither of its lines admits (_admits) is
    skipped untested, and every push, the source's included, moves each
    marker that admits the vertex onto it.  The run only reads the markers,
    so this level's pushes and the verdict are those of a search that
    tests every candidate.  Returns True as soon as a run yields v, False
    once the stack is empty.

    The search holds no per-vertex state, only the stack, the markers and
    a push count.  Markers only advance, so no marker admits a vertex
    twice, and a push after the source's that none admits breaks visit-once.

    Every run is cut to v's box, so every pushed vertex lies in [u, v];
    the module docstring shows why the bounds below still hold.  So the
    markers cover the box's gridlines alone (auxgraph.box_gridlines, which
    also covers the source's own lines where v lies west or south of u):
    av[i - i0] for vertical gridline i, ah[j - j0] for horizontal gridline
    j, where i0 and j0 are the box's first gridlines.  The level charges
    those entries plus its locals, metrics.level_charge(len(av) +
    len(ah)); 2(k+1) entries, the word bound's, are the worst case.

    One run, two probes, chosen once per search by whether the blocks of
    g are base sides (auxgraph.is_base_side), not by the edge_test handed
    in.  Where they are, the search hands its frames None for edge_test,
    and the run decides every pair in the frame's block of g itself: the
    target off the vertex's row and column by one row sweep, the other
    candidates off one frame sweep per visit, each holding base_charge(b,
    n) words, which the search computes once and hands to every frame; the
    edge_test handed in is never asked.  No frame cuts a view of its
    block: every frame reads g itself, its sweeps starting at its own
    column and cut at the columns they ask about.  Above that, edge_test
    is asked about the target off the vertex's row and column and about
    the admitted candidates strictly north-east of the vertex, in run
    order, up to the first joined one of each visit.

    Breaches of the stack bound (2k+1 frames, 2k+3 when an endpoint is off
    the gridlines), of visit-once and of the push bound are counted in the
    metrics' violation counters.  The push bound is the box's: every push
    after the source's advances one of its nx vertical and ny horizontal
    markers, and each marker takes at most one value per row (column) of
    the box, so a search pushes at most 1 + nx*(v.y-u.y+1) + ny*(v.x-u.x+1)
    vertices (an empty range counting 0).
    """
    m = metrics
    b = p.b
    k = p.k
    if is_base_side(b, k):  # the frames sweep their blocks and test no edge
        edge_test = None
    words = base_charge(b, g.base.n)  # the words of one frame sweep
    on_lines = is_gridline_vertex(p, u) and is_gridline_vertex(p, v)
    limit = 2 * k + 1 if on_lines else 2 * k + 3

    i0, nx, j0, ny = box_gridlines(p, u, v)
    av = [-1] * nx
    ah = [p.n + 1] * ny
    level_words = level_charge(len(av) + len(ah))
    m.charge(level_words)

    stack = []
    pushes = 0
    w = u
    try:
        while True:  # push w, then find the next vertex to push
            wx, wy = w
            admit_v, admit_h = _admits(b, av, ah, i0, j0, wx, wy)
            if admit_v:
                av[wx // b - i0] = wy
            if admit_h:
                ah[wy // b - j0] = wx
            if pushes and not (admit_v or admit_h):  # the source needs none
                m.visit_once_violations += 1
            pushes += 1
            stack.append(_run(p, g, w, v, av, ah, edge_test, m, depth, u, i0, j0, words))
            m.note_push(depth, w, len(stack))
            if len(stack) > limit:
                m.stack_bound_violations += 1
            while (w := next(stack[-1], None)) is None:
                stack.pop()
                m.note_pop()
                if not stack:
                    return False
            if w == v:
                return True
    finally:
        m.release(level_words + Metrics.FRAME_WORDS * len(stack))
        if pushes > 1 + nx * max(0, v[1] - u[1] + 1) + ny * max(0, v[0] - u[0] + 1):
            m.push_bound_violations += 1


def _straight(view: SubgridView, ux: int, uy: int, vx: int, vy: int,
              m: Metrics) -> bool:
    """Reachability along one row or one column, given collinear endpoints
    with v north-east of u (_reach answers every other pair before this).

    Any path between two vertices of a common row (column) must run
    straight along it, because the other coordinate can never dip and
    recover; so it exists iff every edge in between does.  Both walks read
    through the view's cut of columns ux..vx (SubgridView.cut), so no read
    is wider than the walk: a row walk reads its row's east edges between
    the two once, a column walk one bit per row.  Tracked state is O(1)
    words beyond the endpoints.
    """
    m.hold(Metrics.WALK_WORDS)
    if uy == vy:
        s, _, em = view.cut(ux, vx)
        return view.east_row(uy, s, em) == (1 << (vx - ux)) - 1
    s, nm, _ = view.cut(ux, ux)  # column ux's north edges: one bit per row
    for y in range(uy, vy):
        if not view.north_row(y, s, nm):
            return False
    return True


def _enters(view: SubgridView, b: int, ux: int, uy: int, vx: int, vy: int,
            m: Metrics) -> bool:
    """The entry check of a divided level with block side b, for u south-west
    of v off a common row, column and block: False exactly where no vertex
    by which a path from u can enter v's block reaches v inside it, and so
    only where u does not reach v.

    Let B be the south-west-most block holding v, [x0, x0+b] x [y0, y0+b]
    with x0 = (vx-1)//b*b and y0 = (vy-1)//b*b.  u lies outside B (else
    the two would share a block), so a path to v has a first vertex in B,
    and its step into B crosses B's west column, where x0 > ux, or its
    south row, where y0 > uy: a step east lands on x = x0, a step north
    on y = y0, and no monotone path comes back into B from its east or
    north.  From there the path stays in B and in [u, v].  So the check is
    one backward sweep from v (grid.row_cosweep) over rows vy down to
    max(y0, uy), inside columns max(x0, ux)..vx, stopping at the west
    column where it is an entry.  That west column, lo, is the sweep's
    origin, so its masks hold at most vx-lo+1 <= b+1 bits.  It returns True
    where the sweep stops there, or ends on row y0 with a mask that is not
    empty where the south row is an entry; False where the mask empties,
    or the sweep ends on u's row.

    It holds the mask and locals of one base case, base_charge(b, n), and
    counts one base_case_calls; it makes no recursive call.
    """
    m.base_case_calls += 1
    m.hold(base_charge(b, view.base.n))
    x0 = (vx - 1) // b * b
    y0 = (vy - 1) // b * b
    lo = x0 if x0 > ux else ux  # the sweep's west column and origin
    west = 1 if x0 > ux else 0  # B's west column, where it is an entry
    y, co = row_cosweep(view, lo, 1 << (vx - lo), vy, y0 if y0 > uy else uy, west)
    return co & west != 0 or (co != 0 and y > uy)


def _reach(view: SubgridView, u: Vertex, v: Vertex, m: Metrics,
           levels: tuple[AuxParams | None, ...], depth: int) -> bool:
    """The dispatch of the module docstring, at depth.  A divided level pads
    view to p.n only in the blocks it addresses: view.sub clips each block
    query's view to the content window, a frame's reads of view stop at
    view's own window, and nothing reads the padded side."""
    rd = m.recursive_calls_by_depth
    if depth < len(rd):
        rd[depth] += 1
    elif depth == len(rd):  # a call at depth d follows one at depth d-1
        rd.append(1)
    else:  # a search entered below the top level
        m.note_call(depth)
    if u == v:
        return True
    ux, uy = u
    vx, vy = v
    if vx < ux or vy < uy:
        return False
    if ux == vx or uy == vy:
        return _straight(view, ux, uy, vx, vy, m)
    p = levels[depth]
    if p is None:
        return base_dfs(view, u, v, m)

    x1, y1 = ne_corner(p, u)
    if vx <= x1 and vy <= y1:
        # Two vertices of one closed block can only be joined inside it
        # (paths never leave a block north-east-ward and return), so a
        # shared block answers the query outright.
        b = p.b
        x0 = x1 - b
        y0 = y1 - b
        return _reach(view.sub(x0, y0, b), (ux - x0, uy - y0),
                      (vx - x0, vy - y0), m, levels, depth + 1)
    if not _enters(view, p.b, ux, uy, vx, vy, m):
        return False
    return _divided(view, p, u, v, m, levels, depth)


def _divided(view: SubgridView, p: AuxParams, u: Vertex, v: Vertex, m: Metrics,
             levels: tuple[AuxParams | None, ...], depth: int) -> bool:
    """A divided level: the marker DFS over view's boundary graph, with its
    edge test, a recursion into the block the edge rule finds.  Where the
    next level is the base case, marker_dfs hands its frames no edge test
    (it decides that by the level's block side), so this one is built and
    never asked.  Kept out of _reach, whose dispatch-only queries would
    otherwise pay for creating the edge test's closure cells."""
    depth1 = depth + 1
    b = p.b

    def edge_test(curr: Vertex, w: Vertex) -> bool:
        m.edge_queries += 1
        if not _gridline_rule(b, u, v, curr, w):
            return False
        x1, y1 = ne_corner(p, curr)
        x0 = x1 - b
        y0 = y1 - b
        return _reach(view.sub(x0, y0, b), (curr[0] - x0, curr[1] - y0),
                      (w[0] - x0, w[1] - y0), m, levels, depth1)

    return marker_dfs(p, view, u, v, edge_test, m, depth)


def reach(g: LayeredGridGraph, s: Vertex, t: Vertex, cfg: EngineConfig,
          metrics: Metrics | None = None) -> Answer:
    """The query entry point: decide whether s reaches t in g.

    Returns the verdict with the metrics the query filled in: a fresh
    Metrics, or the given one, which may be a subclass that observes the
    search through note_push and note_pop.
    """
    if not (0 <= s[0] <= g.n and 0 <= s[1] <= g.n):
        raise ValueError(f"source {s} outside lattice of side {g.n}")
    if not (0 <= t[0] <= g.n and 0 <= t[1] <= g.n):
        raise ValueError(f"target {t} outside lattice of side {g.n}")
    m = Metrics() if metrics is None else metrics
    m.k_top, levels = _schedule(g.n, cfg.epsilon, cfg.k)
    return Answer(_reach(g._whole, s, t, m, levels, 0), m)
