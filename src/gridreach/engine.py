"""Space-bounded reachability engine.

The driver answers a query on a view by dispatching, in order: equal
endpoints; impossible (west/south) displacement; shared row or column
(straight walk); small side (the oracle's row sweep); otherwise it
divides the view into k^2 blocks and runs a marker-array DFS over the
implicit boundary graph, deciding each edge by recursing into the
corresponding block.  At the last divided level, where that recursion
would end in one base-case row sweep per edge, a frame's candidates are
instead read off one row sweep of its block, resumed from test to test
and charged as one base case.

The marker arrays hold, per vertical gridline, the topmost vertex pushed
so far, and per horizontal gridline the leftmost; a candidate's edge is
tested, and the candidate pushed, only when one of its lines still admits
it, so a candidate the markers reject costs no recursion.  Each frame
tests the edge into the target once, on entry, before it enumerates
anything else.  Neighbors are cycled in counter-clockwise order starting
due east, so lower and righter targets are explored first and the skip
rule never hides a reachable vertex.  The stack then never holds more
than 2k+1 frames (2k+3 when an endpoint is block-interior and enters
through augmented edges).

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

from .auxgraph import AuxParams, decompose, is_gridline_vertex, iter_candidates
from .grid import LayeredGridGraph, SubgridView, Vertex, oracle_reach, row_sweep
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


@dataclass
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
def _schedule(side: int, cfg: EngineConfig) -> tuple[int, tuple[AuxParams | None, ...]]:
    """A query's divisor k and its decomposition at every depth.

    k is the given one clamped to the side, or choose_k(side, epsilon); a
    side below 2 keeps the given k, or 2.  The levels are decompose(side,
    k).  Cached, because the dispatch-only queries would otherwise pay for
    building the AuxParams.
    """
    if cfg.k is not None:
        k = min(cfg.k, side) if side >= 2 else cfg.k
    else:
        k = choose_k(side, cfg.epsilon) if side >= 2 else 2
    return k, decompose(side, k)


def base_dfs(view: SubgridView, u: Vertex, v: Vertex, metrics: Metrics | None = None) -> bool:
    """The recursion's base case: the oracle's row sweep on a small block.

    The sweep holds one (side+1)-bit reach mask plus its locals; see
    metrics.base_charge.
    """
    m = metrics if metrics is not None else Metrics()
    m.base_case_calls += 1
    words = base_charge(view.side, view.base.n)
    m.charge(words)
    m.release(words)
    return oracle_reach(view, u, v)


def marker_dfs(p: AuxParams, g: SubgridView, u: Vertex, v: Vertex, edge_test,
               metrics: Metrics | None = None, depth: int = 0) -> bool:
    """Marker-array DFS over the implicit boundary graph.

    edge_test(curr, w) decides edge membership (recursing into blocks as it
    sees fit).  A frame tests the target v once, on entry, before it opens
    its enumeration, and no marker is consulted: a target sitting below a
    marker must still be recognized.  Candidates are then enumerated lazily
    in counter-clockwise order, skipping v, and each frame keeps its
    enumeration cursor, so returning to a frame resumes strictly past the
    child it just popped.  The markers gate the edge test: a candidate that
    neither of its lines admits is skipped untested, and an admitting
    marker advances only once the test answers yes.  edge_test touches no
    marker, stack or pushed set, so this level's pushes and the verdict are
    those of a search that tests every candidate; only the skipped tests'
    work is saved.  Returns True iff v is reached.  g is unused: edge_test
    reads the view.

    Breaches of the stack bound (2k+1 frames, 2k+3 when an endpoint is off
    the gridlines), of visit-once and of the push bound are counted in the
    metrics' violation counters.
    """
    m = metrics if metrics is not None else Metrics()
    b = p.b
    k = p.k
    vx, vy = v
    on_lines = is_gridline_vertex(p, u) and is_gridline_vertex(p, v)
    limit = 2 * k + 1 if on_lines else 2 * k + 3

    av: list[Vertex | None] = [None] * (k + 2)
    ah: list[Vertex | None] = [None] * (k + 2)
    level_words = level_charge(k)
    m.charge(level_words)

    # Frame = [vertex, candidate cursor]; the cursor is created on first use.
    stack: list[list] = [[u, None]]
    pushed = {u}
    m.pushes += 1
    m.charge(Metrics.FRAME_WORDS)
    m.note_stack(depth, 1)
    log = m.push_log
    if log is not None:
        log.append((depth, u))

    try:
        while stack:
            frame = stack[-1]
            curr = frame[0]
            gen = frame[1]
            if gen is None:
                if (curr != v and vx >= curr[0] and vy >= curr[1]
                        and edge_test(curr, v)):
                    return True
                gen = iter_candidates(p, curr)
                frame[1] = gen
            advanced = False
            for w in gen:
                if w == v:
                    continue
                wx, wy = w
                admit_v = admit_h = False
                if wx % b == 0:
                    i = wx // b + 1
                    mv = av[i]
                    admit_v = mv is None or mv[1] < wy
                if wy % b == 0:
                    j = wy // b + 1
                    mh = ah[j]
                    admit_h = mh is None or mh[0] > wx
                # Skip before the edge test; the cursor is already past w.
                if not (admit_v or admit_h) or not edge_test(curr, w):
                    continue
                if admit_v:
                    av[i] = w
                if admit_h:
                    ah[j] = w
                if w in pushed:
                    m.visit_once_violations += 1
                pushed.add(w)
                stack.append([w, None])
                m.pushes += 1
                m.charge(Metrics.FRAME_WORDS)
                m.note_stack(depth, len(stack))
                if log is not None:
                    log.append((depth, w))
                if len(stack) > limit:
                    m.stack_bound_violations += 1
                advanced = True
                break
            if not advanced:
                stack.pop()
                m.pops += 1
                m.release(Metrics.FRAME_WORDS)
        return False
    finally:
        m.release(level_words + Metrics.FRAME_WORDS * len(stack))
        if len(pushed) > 2 * (k + 1) * (p.n + 1) + 2:
            m.push_bound_violations += 1


def reach_recursive(view: SubgridView, u: Vertex, v: Vertex, cfg: EngineConfig,
                    metrics: Metrics | None = None) -> bool:
    """Decide reachability on a view; endpoints may sit anywhere in it."""
    if not view.contains(u):
        raise ValueError(f"source {u} outside view")
    if not view.contains(v):
        raise ValueError(f"target {v} outside view")
    m = metrics if metrics is not None else Metrics()
    m.k_top, levels = _schedule(view.side, cfg)
    return _reach(view, u, v, m, levels, 0)


def _straight(view: SubgridView, ux: int, uy: int, vx: int, vy: int,
              m: Metrics) -> bool:
    """Row/column walk on a view given collinear endpoints, mask-based."""
    m.charge(Metrics.WALK_WORDS)
    m.release(Metrics.WALK_WORDS)
    if uy == vy:
        if vx < ux:
            return False
        need = ((1 << (vx - ux)) - 1) << ux
        return view.east_row(uy) & need == need
    if vy < uy:
        return False
    x = ux
    for y in range(uy, vy):
        if not (view.north_row(y) >> x) & 1:
            return False
    return True


def straight_walk(g: SubgridView, u: Vertex, v: Vertex,
                  metrics: Metrics | None = None) -> bool:
    """Reachability along one row or one column.

    Any path between two vertices of a common row (column) must run
    straight along it, because the other coordinate can never dip and
    recover; so it exists iff every edge in between does.  Tracked state is
    O(1) words beyond the endpoints.
    """
    if not g.contains(u):
        raise ValueError(f"{u} outside view")
    if not g.contains(v):
        raise ValueError(f"{v} outside view")
    if u[0] != v[0] and u[1] != v[1]:
        raise ValueError(f"{u} and {v} share no row or column")
    m = metrics if metrics is not None else Metrics()
    return _straight(g, u[0], u[1], v[0], v[1], m)


def shared_block(b: int, ax: int, ay: int, cx: int, cy: int) -> Vertex | None:
    """Origin of a side-b block holding both a and c, or None.

    Requires a <= c coordinate-wise.  Along each axis the lowest block
    holding c starts at c // b, one lower when c sits on a gridline; it
    holds a too iff it starts no higher than a's block.  Points off a
    common row and column share at most one block.
    """
    qx = cx // b
    if qx and cx == qx * b:
        qx -= 1
    if qx > ax // b:
        return None
    qy = cy // b
    if qy and cy == qy * b:
        qy -= 1
    if qy > ay // b:
        return None
    return qx * b, qy * b


def _may_reach(view: SubgridView, ux: int, uy: int, vx: int, vy: int) -> bool:
    """The prefilter, for ux < vx and uy < vy: necessary conditions for a
    path.  A path crosses every row of the span inside the column range,
    and every column inside the row range; two cheap mask sweeps prune most
    dead queries before any subdivision or row sweep.

    Its masks (acc, the OR of the span's east rows, and row_span and
    col_need) hold up to `side` bits each and are not charged as tracked
    words: at the top level they are as wide as the oracle's row mask
    (ROADMAP item 5).
    """
    nr = view.north_row
    er = view.east_row
    row_span = ((2 << (vx - ux)) - 1) << ux
    col_need = ((1 << (vx - ux)) - 1) << ux
    acc = er(vy)
    for y in range(uy, vy):
        if not nr(y) & row_span:
            return False
        acc |= er(y)
    return acc & col_need == col_need


def _reach(view: SubgridView, u: Vertex, v: Vertex, m: Metrics,
           levels: tuple[AuxParams | None, ...], depth: int) -> bool:
    rd = m.recursive_calls_by_depth
    if depth < len(rd):
        rd[depth] += 1
    else:
        m.note_call(depth)
    if u == v:
        return True
    ux, uy = u
    vx, vy = v
    if vx < ux or vy < uy:
        return False
    if ux == vx or uy == vy:
        return _straight(view, ux, uy, vx, vy, m)
    if not _may_reach(view, ux, uy, vx, vy):
        return False
    p = levels[depth]
    if p is None:
        return base_dfs(view, u, v, m)

    pview = view if p.n == view.side else view.padded(p.n)
    b = p.b
    o = shared_block(b, ux, uy, vx, vy)
    if o is not None:
        # Two vertices of one closed block can only be joined inside it
        # (paths never leave a block north-east-ward and return), so a
        # shared block answers the query outright.
        x0, y0 = o
        return _reach(pview.sub(x0, y0, b), (ux - x0, uy - y0),
                      (vx - x0, vy - y0), m, levels, depth + 1)
    return _divided(pview, p, u, v, m, levels, depth)


def _divided(pview: SubgridView, p: AuxParams, u: Vertex, v: Vertex, m: Metrics,
             levels: tuple[AuxParams | None, ...], depth: int) -> bool:
    """A divided level: the marker DFS over pview's boundary graph, with
    its edge test.  Kept out of _reach, whose dispatch-only queries would
    otherwise pay for creating the edge test's closure cells."""
    b = p.b
    depth1 = depth + 1
    last = levels[depth1] is None
    # The frame sweep, at the last divided level: the row sweep of one
    # frame's block from the frame's vertex (s_curr while s_pushes pushes
    # had been made), advanced to local row s_y with reach mask s_mask
    # (closed in that row once a test has read it).  It holds the base
    # case's words while `held`.
    words = base_charge(b, pview.base.n)
    s_curr = s_view = None
    s_pushes = s_y = s_mask = 0
    held = False

    def edge_test(curr: Vertex, w: Vertex) -> bool:
        nonlocal s_curr, s_view, s_pushes, s_y, s_mask, held
        m.edge_queries += 1
        cx, cy = curr
        wx, wy = w
        if (wx == cx and cx % b == 0) or (wy == cy and cy % b == 0):
            if not (((cx % b == 0 and cy % b == 0) and (w == v or (
                    wx % b == 0 and wy % b == 0)))
                    or (curr == u and wx % b == 0 and wy % b == 0)):
                return False
        o = shared_block(b, cx, cy, wx, wy)
        if o is None:
            return False
        x0, y0 = o
        if last and cx < wx and cy < wy and w != v:
            # w is strictly north-east of curr, so the block they share is
            # curr's north-eastmost one, whose east column and north row
            # are the run iter_candidates yields: the frame sweep answers.
            ty = wy - y0
            if curr != s_curr or m.pushes != s_pushes or ty < s_y:
                if held:
                    m.release(words)
                    held = False
                s_curr = None
                s_view = pview.sub(x0, y0, b)
                if not _may_reach(s_view, cx - x0, cy - y0, wx - x0, ty):
                    return False
                m.note_call(depth1)
                m.base_case_calls += 1
                s_curr = curr
                s_pushes = m.pushes
                s_y = cy - y0  # below ty, so the sweep runs at once
                s_mask = 1 << (cx - x0)
            if not held:
                m.charge(words)
                held = True
            if ty > s_y:
                s_mask = row_sweep(s_view, s_mask, s_y, ty)
                s_y = ty
            if (s_mask >> (wx - x0)) & 1:
                m.release(words)  # a push may follow
                held = False
                return True
            return False
        if held:
            m.release(words)
            held = False
        return _reach(pview.sub(x0, y0, b), (cx - x0, cy - y0),
                      (wx - x0, wy - y0), m, levels, depth1)

    try:
        return marker_dfs(p, pview, u, v, edge_test, m, depth)
    finally:
        if held:
            m.release(words)
            held = False


def reach(g: LayeredGridGraph, s: Vertex, t: Vertex, cfg: EngineConfig) -> Answer:
    """Top-level query on a whole graph; returns the verdict plus metrics."""
    if not (0 <= s[0] <= g.n and 0 <= s[1] <= g.n):
        raise ValueError(f"source {s} outside lattice of side {g.n}")
    if not (0 <= t[0] <= g.n and 0 <= t[1] <= g.n):
        raise ValueError(f"target {t} outside lattice of side {g.n}")
    m = Metrics()
    m.k_top, levels = _schedule(g.n, cfg)
    return Answer(_reach(SubgridView.whole(g), s, t, m, levels, 0), m)
