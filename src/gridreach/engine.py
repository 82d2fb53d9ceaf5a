"""Space-bounded reachability engine.

The driver answers a query on a view by dispatching, in order: equal
endpoints; impossible (west/south) displacement; shared row or column
(straight walk); small side (plain DFS); otherwise it divides the view
into k^2 blocks and runs a marker-array DFS over the implicit boundary
graph, deciding each edge by recursing into the corresponding block.

The marker arrays hold, per vertical gridline, the topmost vertex pushed
so far, and per horizontal gridline the leftmost; a candidate is pushed
only when one of its lines still admits it.  Neighbors are cycled in
counter-clockwise order starting due east, so lower and righter targets
are explored first and the skip rule never hides a reachable vertex.  The
stack then never holds more than 2k+1 frames (2k+3 when an endpoint is
block-interior and enters through augmented edges).

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

import math
from dataclasses import dataclass

from .auxgraph import (
    AuxParams,
    is_gridline_vertex,
    iter_candidates,
)
from .grid import LayeredGridGraph, SubgridView, Vertex
from .metrics import Metrics


class InvariantViolation(AssertionError):
    """A debug-mode check failed (stack bound, visit-once)."""


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    Exactly one of ``epsilon`` and ``k`` drives the divisor: with epsilon,
    every level recomputes k = clamp(round(side^(eps/2)), 2, side) from its
    own side; with k, the same divisor is reused at every level (the
    fixed-k schedule used for recurrence validation).  ``base_side_max``
    defaults to the current level's k.
    """

    epsilon: float | None = None
    k: int | None = None
    base_side_max: int | None = None
    check_invariants: bool = False

    def __post_init__(self):
        if (self.epsilon is None) == (self.k is None):
            raise ValueError("exactly one of epsilon and k must be given")
        if self.epsilon is not None and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.k is not None and self.k < 2:
            raise ValueError("k must be >= 2")
        if self.base_side_max is not None and self.base_side_max < 2:
            raise ValueError("base_side_max must be >= 2")


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


def base_dfs(view: SubgridView, u: Vertex, v: Vertex, metrics: Metrics | None = None) -> bool:
    """Plain DFS with a visited flag per vertex; the recursion's base case.

    Charged as one word per visited flag and live stack entry plus the row
    masks and locals; the peak is recorded once since nothing else runs
    concurrently with a leaf call.
    """
    m = metrics if metrics is not None else Metrics()
    m.base_case_calls += 1
    if u == v:
        return True
    vx, vy = v
    ux, uy = u
    if vx < ux or vy < uy:
        return False
    w1 = view.side + 1
    base = view.base
    bn = base.n
    ox = view.ox
    oy = view.oy
    wxl = view.wx
    wyl = view.wy
    emask = (1 << wxl) - 1 if wxl > 0 else 0
    nmask = (2 << wxl) - 1
    east = []
    north = []
    for y in range(w1):
        ay = oy + y
        east.append((base._east[ay] >> ox) & emask if y <= wyl and ay <= bn else 0)
        north.append((base._north[ay] >> ox) & nmask if y < wyl and ay < bn else 0)
    visited = bytearray(w1 * w1)
    stack = [u]
    visited[uy * w1 + ux] = 1
    live = 1
    peak = 1
    found = False
    while stack:
        x, y = stack.pop()
        live -= 1
        if (east[y] >> x) & 1:
            nx = x + 1
            if nx == vx and y == vy:
                found = True
                break
            idx = y * w1 + nx
            if not visited[idx]:
                visited[idx] = 1
                stack.append((nx, y))
                live += 1
        if (north[y] >> x) & 1:
            ny = y + 1
            if x == vx and ny == vy:
                found = True
                break
            idx = ny * w1 + x
            if not visited[idx]:
                visited[idx] = 1
                stack.append((x, ny))
                live += 1
        if live > peak:
            peak = live
    words = w1 * w1 + 2 * w1 + Metrics.BASE_WORDS + peak
    m.charge(words)
    m.release(words)
    return found


def marker_dfs(p: AuxParams, g: SubgridView, u: Vertex, v: Vertex, edge_test,
              metrics: Metrics | None = None, depth: int = 0,
              u_on_lines: bool | None = None, v_on_lines: bool | None = None,
              extra: Vertex | None = None, check: bool = False) -> bool:
    """Marker-array DFS over the implicit boundary graph.

    edge_test(curr, w) decides edge membership (recursing into blocks as it
    sees fit); candidates are enumerated lazily in counter-clockwise order,
    and each frame keeps its enumeration cursor, so returning to a frame
    resumes strictly past the child it just popped.  Returns True iff v is
    reached.  The target check runs before the marker check: a target
    sitting below a marker must still be recognized.
    """
    m = metrics if metrics is not None else Metrics()
    b = p.b
    k = p.k
    if u_on_lines is None:
        u_on_lines = is_gridline_vertex(p, u)
    if v_on_lines is None:
        v_on_lines = is_gridline_vertex(p, v)
    limit = 2 * k + 1 if (u_on_lines and v_on_lines) else 2 * k + 3

    av: list[Vertex | None] = [None] * (k + 2)
    ah: list[Vertex | None] = [None] * (k + 2)
    level_words = 2 * (k + 1) + Metrics.LEVEL_WORDS
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
                gen = iter_candidates(p, curr, extra)
                frame[1] = gen
            advanced = False
            for _, w in gen:
                if not edge_test(curr, w):
                    continue
                if w == v:
                    return True
                wx, wy = w
                admit = False
                on_v = wx % b == 0
                on_h = wy % b == 0
                if on_v:
                    mv = av[wx // b + 1]
                    if mv is None or mv[1] < wy:
                        admit = True
                if not admit and on_h:
                    mh = ah[wy // b + 1]
                    if mh is None or mh[0] > wx:
                        admit = True
                if not admit:
                    continue  # skip; the cursor is already past w
                if on_v:
                    i = wx // b + 1
                    if av[i] is None or av[i][1] < wy:
                        av[i] = w
                if on_h:
                    j = wy // b + 1
                    if ah[j] is None or ah[j][0] > wx:
                        ah[j] = w
                if w in pushed:
                    m.visit_once_violations += 1
                    if check:
                        raise InvariantViolation(f"vertex {w} pushed twice")
                pushed.add(w)
                stack.append([w, None])
                m.pushes += 1
                m.charge(Metrics.FRAME_WORDS)
                m.note_stack(depth, len(stack))
                if log is not None:
                    log.append((depth, w))
                if len(stack) > limit:
                    m.stack_bound_violations += 1
                    if check:
                        raise InvariantViolation(
                            f"stack depth {len(stack)} exceeds {limit} (k={k})")
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
            if check:
                raise InvariantViolation(
                    f"{len(pushed)} pushes exceed the vertex-set bound")


class _Run:
    """Per-query context threaded through the recursion."""

    __slots__ = ("cfg", "metrics", "plan")

    def __init__(self, cfg: EngineConfig, metrics: Metrics):
        self.cfg = cfg
        self.metrics = metrics
        # side -> (None for base case) | AuxParams; the schedule is a pure
        # function of the side for a fixed config.
        self.plan: dict[int, AuxParams | None] = {}

    def params_for(self, side: int) -> AuxParams | None:
        plan = self.plan
        if side in plan:
            return plan[side]
        cfg = self.cfg
        if cfg.k is not None:
            k = cfg.k
        else:
            k = choose_k(side, cfg.epsilon) if side >= 2 else 2
        base_max = cfg.base_side_max if cfg.base_side_max is not None else k
        if side <= base_max:
            p = None
        else:
            if k > side:
                k = side
            p = AuxParams(((side + k - 1) // k) * k, k)
        plan[side] = p
        return p


def reach_recursive(view: SubgridView, u: Vertex, v: Vertex, cfg: EngineConfig,
                    metrics: Metrics | None = None, depth: int = 0) -> bool:
    """Decide reachability on a view; endpoints may sit anywhere in it."""
    if not view.contains(u):
        raise ValueError(f"source {u} outside view")
    if not view.contains(v):
        raise ValueError(f"target {v} outside view")
    m = metrics if metrics is not None else Metrics()
    return _reach(view, u, v, _Run(cfg, m), depth)


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


def _reach(view: SubgridView, u: Vertex, v: Vertex, run: _Run, depth: int) -> bool:
    m = run.metrics
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
    # Necessary conditions: a path crosses every row of the span inside the
    # column range, and every column inside the row range.  Two cheap mask
    # sweeps prune most dead queries before any subdivision.
    nr = view.north_row
    er = view.east_row
    row_span = ((2 << (vx - ux)) - 1) << ux
    col_need = ((1 << (vx - ux)) - 1) << ux
    acc = er(vy)
    for y in range(uy, vy):
        if not nr(y) & row_span:
            return False
        acc |= er(y)
    if acc & col_need != col_need:
        return False
    side = view.side
    p = run.params_for(side)
    if p is None:
        return base_dfs(view, u, v, m)

    padded_side = p.n
    pview = view if padded_side == side else view.padded(padded_side)
    b = p.b
    o = shared_block(b, ux, uy, vx, vy)
    if o is not None:
        # Two vertices of one closed block can only be joined inside it
        # (paths never leave a block north-east-ward and return), so a
        # shared block answers the query outright.
        x0, y0 = o
        return _reach(pview.sub(x0, y0, b), (ux - x0, uy - y0),
                      (vx - x0, vy - y0), run, depth + 1)

    u_on = ux % b == 0 or uy % b == 0
    v_on = vx % b == 0 or vy % b == 0
    depth1 = depth + 1

    def edge_test(curr: Vertex, w: Vertex) -> bool:
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
        return _reach(pview.sub(x0, y0, b), (cx - x0, cy - y0),
                      (wx - x0, wy - y0), run, depth1)

    return marker_dfs(p, pview, u, v, edge_test, m, depth=depth,
                      u_on_lines=u_on, v_on_lines=v_on, extra=v,
                      check=run.cfg.check_invariants)


def reach(g: LayeredGridGraph, s: Vertex, t: Vertex, cfg: EngineConfig) -> Answer:
    """Top-level query on a whole graph; returns the verdict plus metrics."""
    if not (0 <= s[0] <= g.n and 0 <= s[1] <= g.n):
        raise ValueError(f"source {s} outside lattice of side {g.n}")
    if not (0 <= t[0] <= g.n and 0 <= t[1] <= g.n):
        raise ValueError(f"target {t} outside lattice of side {g.n}")
    m = Metrics()
    if cfg.k is not None:
        m.k_top = min(cfg.k, g.n) if g.n >= 2 else cfg.k
    else:
        m.k_top = choose_k(g.n, cfg.epsilon) if g.n >= 2 else 2
    run = _Run(cfg, m)
    result = _reach(SubgridView.whole(g), s, t, run, 0)
    return Answer(result, m)
