"""Independent oracles and test seams shared by the test modules.

The oracles recompute structure from first principles (full closures,
explicit edge rules) so the engine under test is never used to check
itself.  The references are the plain loops that faster library code
replaced, kept for differential tests: the float-at-a-time generator, the
per-character LGG codec, and the per-bit backward row closure
(reference_row_cosweep).  The forward sweeps and the block checks have
references built on lattice_reach and lattice_reached: the forward row
sweep cut at a column (reference_row_sweep), the entry check
(reference_enters) and the first vertex of an arc that a forward sweep
reaches (reference_arc_sweep).  The seams build view chains, watch the
views sub makes and record the marker DFS's pushes.
"""

from __future__ import annotations

from gridreach import (AuxParams, LayeredGridGraph, LggFormatError, Metrics, SplitMix64,
                       SubgridView)
from gridreach.auxgraph import iter_candidates
from gridreach.grid import arc


def lattice_reach(g: LayeredGridGraph, box, s, t) -> bool:
    """Reachability from s to t over the edges of g with both ends inside
    the inclusive base-coordinate box (x0, y0, x1, y1).

    A plain DFS over the graph's own edge predicates: it reads no view and
    runs no row sweep, so it checks ``oracle_reach`` and the views rather
    than sharing their code.
    """
    if s == t:
        return True
    x0, y0, x1, y1 = box
    x1 = min(x1, g.n)
    y1 = min(y1, g.n)
    if not (x0 <= s[0] <= x1 and y0 <= s[1] <= y1):
        return False
    seen = {s}
    stack = [s]
    while stack:
        x, y = stack.pop()
        for w, ok in (((x + 1, y), x < x1 and g.east(x, y)),
                      ((x, y + 1), y < y1 and g.north(x, y))):
            if ok and w not in seen:
                if w == t:
                    return True
                seen.add(w)
                stack.append(w)
    return False


def lattice_reached(g: LayeredGridGraph, box, sources) -> set:
    """The vertices that some source reaches over the edges of g with both
    ends inside the inclusive base-coordinate box (x0, y0, x1, y1): the
    sources themselves, and lattice_reach's DFS from those inside the box,
    run once for all of them."""
    x0, y0, x1, y1 = box
    x1 = min(x1, g.n)
    y1 = min(y1, g.n)
    seen = set(sources)
    stack = [s for s in seen if x0 <= s[0] <= x1 and y0 <= s[1] <= y1]
    while stack:
        x, y = stack.pop()
        for w, ok in (((x + 1, y), x < x1 and g.east(x, y)),
                      ((x, y + 1), y < y1 and g.north(x, y))):
            if ok and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _reached_from_row(g: LayeredGridGraph, origin, box, reach: int, y: int, cut: int,
                      ty: int) -> set:
    """lattice_reached from the set columns of reach in row y, in a view's
    local coordinates, over the edges inside the view's content box, in
    columns up to cut and rows up to ty."""
    ox, oy = origin
    within = (box[0], box[1], min(box[2], ox + cut), min(box[3], oy + ty))
    return lattice_reached(g, within, [(ox + x, oy + y) for x in range(cut + 1)
                                       if (reach >> x) & 1])


def reference_arc_sweep(g: LayeredGridGraph, origin, box, x1: int, y1: int, reach: int,
                        y: int, ty: int, ey: int, top: int):
    """``grid.arc_sweep`` on a view from lattice_reached: the first vertex of
    ``arc(x1, y1, ty, ey, top)`` that a set column of reach in row y
    reaches over the edges inside the view's content box and in columns up
    to the cut x1, in the view's local coordinates, or None.  reach holds
    no column east of x1; origin and box are as in reference_enters."""
    ox, oy = origin
    reached = _reached_from_row(g, origin, box, reach, y, x1, y1)
    for x, ay in arc(x1, y1, ty, ey, top):
        if (ox + x, oy + ay) in reached:
            return x, ay
    return None


def reference_enters(g: LayeredGridGraph, origin, box, b: int, u, v) -> bool:
    """The entry check of a divided level with block side b (``engine._enters``),
    built on lattice_reach alone, for u south-west of v in a view's local
    coordinates.  origin is the view's base-coordinate origin and box the
    inclusive base-coordinate box of its content (see view_chain).

    B is the south-west-most block holding v, [x0, x0+b] x [y0, y0+b] with
    x0 = (v.x-1)//b*b and y0 = (v.y-1)//b*b.  True exactly when some vertex
    of B's west column (where x0 > u.x) or of its south row (where y0 >
    u.y) inside [u, v] reaches v within B.
    """
    ox, oy = origin
    x0 = (v[0] - 1) // b * b
    y0 = (v[1] - 1) // b * b
    entries = []
    if x0 > u[0]:
        entries += [(x0, y) for y in range(max(y0, u[1]), v[1] + 1)]
    if y0 > u[1]:
        entries += [(x, y0) for x in range(max(x0, u[0]), v[0] + 1)]
    within = (max(box[0], ox + x0), max(box[1], oy + y0),
              min(box[2], ox + x0 + b), min(box[3], oy + y0 + b))
    t = (ox + v[0], oy + v[1])
    return any(lattice_reach(g, within, (ox + x, oy + y), t) for x, y in entries)


def reference_gen_random(n: int, p_north: float, p_east: float,
                         seed: int) -> LayeredGridGraph:
    """``gen_random`` drawn one float at a time through
    ``SplitMix64.next_float``: rows y=0..n, columns x=0..n, a north draw
    where y < n, then an east draw where x < n."""
    rng = SplitMix64(seed)
    north = [0] * (n + 1)
    east = [0] * (n + 1)
    for y in range(n + 1):
        for x in range(n + 1):
            if y < n and rng.next_float() < p_north:
                north[y] |= 1 << x
            if x < n and rng.next_float() < p_east:
                east[y] |= 1 << x
    return LayeredGridGraph(n, north, east)


def reference_row_sweep(g: LayeredGridGraph, origin, box, reach: int, y: int, ty: int,
                        cut: int) -> int:
    """``grid.row_sweep`` on a view from lattice_reached: the columns of row
    ty that a set column of reach in row y reaches over the edges inside
    the view's content box and in columns up to cut, in the view's local
    coordinates.  reach holds no column east of cut; origin and box are as
    in reference_enters."""
    ox, oy = origin
    reached = _reached_from_row(g, origin, box, reach, y, cut, ty)
    return sum(1 << x for x in range(cut + 1) if (ox + x, oy + ty) in reached)


def reference_row_cosweep(view: SubgridView, co: int, y: int, ty: int, lo: int,
                          stop: int) -> tuple[int, int]:
    """``row_cosweep`` with each row closed one west step per pass: a
    column x >= lo joins where its east edge leads into the mask, until a
    pass adds no column.  It stops where the closed mask holds stop,
    returning that row's mask as it was before it closed, with stop."""
    while True:
        em = view.east_row(y) >> lo << lo
        closed = co
        while True:
            spread = closed | ((closed >> 1) & em)
            if spread == closed:
                break
            closed = spread
        if closed & stop:
            return y, co | stop
        if y == ty:
            return y, closed
        y -= 1
        co = closed & view.north_row(y)
        if co == 0:
            return y, 0


_CHAR_BY_BITS = {(False, False): ".", (True, False): "N", (False, True): "E",
                 (True, True): "B"}


def reference_emit_lgg(g: LayeredGridGraph) -> str:
    """``emit_lgg`` one character at a time, from the edge predicates."""
    out = [f"lgg 1 {g.n}"]
    for y in range(g.n + 1):
        out.append("".join(
            _CHAR_BY_BITS[(g.north(x, y), g.east(x, y))]
            for x in range(g.n + 1)))
    return "\n".join(out) + "\n"


def reference_parse_lgg(text: str) -> LayeredGridGraph:
    """``parse_lgg`` one character at a time, raising the same errors at the
    same line and column."""
    lines = text.splitlines()
    if not lines:
        raise LggFormatError("empty input", 1, 1)
    head = lines[0].split(" ")
    if len(head) != 3 or head[0] != "lgg" or head[1] != "1":
        raise LggFormatError("malformed header, expected 'lgg 1 <n>'", 1, 1)
    try:
        n = int(head[2])
    except ValueError:
        raise LggFormatError("malformed header, side is not an integer", 1, 1) from None
    if n < 1:
        raise LggFormatError("side must be >= 1", 1, 1)
    rows = lines[1:]
    if len(rows) != n + 1:
        raise LggFormatError(
            f"row count mismatch: expected {n + 1} rows, found {len(rows)}",
            len(lines) + 1 if len(rows) < n + 1 else n + 3, 1)
    north = [0] * (n + 1)
    east = [0] * (n + 1)
    for y, row in enumerate(rows):
        line_no = y + 2
        if len(row) != n + 1:
            raise LggFormatError(
                f"row length mismatch: expected {n + 1} characters, found {len(row)}",
                line_no, min(len(row), n + 1) + 1)
        for x, ch in enumerate(row):
            if ch == ".":
                continue
            if ch not in "NEB":
                raise LggFormatError(f"illegal character {ch!r}", line_no, x + 1)
            if ch in "NB":
                if y == n:
                    raise LggFormatError("north edge leaves the lattice (top row)",
                                         line_no, x + 1)
                north[y] |= 1 << x
            if ch in "EB":
                if x == n:
                    raise LggFormatError("east edge leaves the lattice (right column)",
                                         line_no, x + 1)
                east[y] |= 1 << x
    return LayeredGridGraph(n, north, east)


def view_chain(g: LayeredGridGraph, steps: int, pick):
    """A chain of `steps` views of g, cut from the whole view by sub.

    pick(lo, hi) draws an integer in [lo, hi], so a seeded generator or a
    hypothesis draw can drive the chain.  Each step either pads, sub(0, 0,
    s) with s from side to 2*side, or cuts a sub of side at least 1 that
    starts inside the view and ends within its side.  Returns the last
    view, its base-coordinate origin and the inclusive base-coordinate box
    (x0, y0, x1, y1) of the content the chain shows, all three tracked
    here without reading the views.
    """
    view = SubgridView.whole(g)
    ox = oy = 0
    box = (0, 0, g.n, g.n)
    for _ in range(steps):
        if pick(0, 1):
            dx = dy = 0
            side = pick(view.side, 2 * view.side)
        else:
            dx = pick(0, view.side - 1)
            dy = pick(0, view.side - 1)
            room = view.side - max(dx, dy)
            side = room - pick(0, room - 1)  # shrinks to the widest
        view = view.sub(dx, dy, side)
        ox += dx
        oy += dy
        box = (max(box[0], ox), max(box[1], oy),
               min(box[2], ox + side), min(box[3], oy + side))
    return view, (ox, oy), box


def window_holds(view: SubgridView) -> bool:
    """SubgridView's window invariant: -1 <= wx <= side and, where wx >= 0,
    ox + wx <= base.n; likewise for y.  The view's stored masks are those of
    its window: north_mask holds columns 0..wx, east_mask columns 0..wx-1."""
    n = view.base.n
    wx = view.wx
    return (-1 <= wx <= view.side and -1 <= view.wy <= view.side
            and (wx < 0 or view.ox + wx <= n)
            and (view.wy < 0 or view.oy + view.wy <= n)
            and view.north_mask == sum(1 << x for x in range(wx + 1))
            and view.east_mask == sum(1 << x for x in range(wx)))


def watch_windows(monkeypatch) -> list[SubgridView]:
    """Wrap SubgridView.sub so that every view it makes is checked against
    window_holds; returns the list the checked views are appended to."""
    real = SubgridView.sub
    seen = []

    def sub(self, ox, oy, side):
        view = real(self, ox, oy, side)
        assert window_holds(view), (self, ox, oy, side, view)
        seen.append(view)
        return view

    monkeypatch.setattr(SubgridView, "sub", sub)
    return seen


class PushLog(Metrics):
    """Metrics that record every marker-DFS push as (depth, vertex) in
    ``log``, in push order."""

    __slots__ = ("log",)

    def __init__(self):
        super().__init__()
        self.log = []

    def note_push(self, depth, w, frames):
        self.log.append((depth, w))
        super().note_push(depth, w, frames)


def closure_bits(view: SubgridView):
    """Reflexive-transitive closure of a view as bitsets.

    Returns (index, rows) where index maps (x, y) -> bit position and
    rows[i] has bit j set iff vertex j is reachable from vertex i.
    """
    side = view.side
    w1 = side + 1
    order = [(x, y) for y in range(w1) for x in range(w1)]
    index = {v: i for i, v in enumerate(order)}
    rows = [0] * len(order)
    # reverse topological order: larger x+y first
    for v in sorted(order, key=lambda t: -(t[0] + t[1])):
        x, y = v
        i = index[v]
        bits = 1 << i
        if view.east(x, y):
            bits |= rows[index[(x + 1, y)]]
        if view.north(x, y):
            bits |= rows[index[(x, y + 1)]]
        rows[i] = bits
    return index, rows


def gridline_vertices(p: AuxParams):
    return [
        (x, y)
        for y in range(p.n + 1)
        for x in range(p.n + 1)
        if x % p.b == 0 or y % p.b == 0
    ]


def admissible(p: AuxParams, u, v) -> bool:
    """The gridline filter of the edge rule, recomputed from coordinates."""
    b = p.b
    same_line = (u[0] == v[0] and u[0] % b == 0) or (u[1] == v[1] and u[1] % b == 0)
    if not same_line:
        return True
    return all(c % b == 0 for c in (*u, *v))


def common_blocks(p: AuxParams, u, v):
    def axis(c):
        q, r = divmod(c, p.b)
        lo = q - 1 if r == 0 and q > 0 else q
        return range(max(lo, 0), min(q, p.k - 1) + 1)

    xs = set(axis(u[0])) & set(axis(v[0]))
    ys = set(axis(u[1])) & set(axis(v[1]))
    return [(bx, by) for bx in sorted(xs) for by in sorted(ys)]


def block_reach(p: AuxParams, g: SubgridView, block, u, v) -> bool:
    """A path u -> v inside one block of g (u, v in g's coordinates)."""
    x0 = g.ox + block[0] * p.b
    y0 = g.oy + block[1] * p.b
    box = (x0, y0, min(x0 + p.b, g.ox + g.wx), min(y0 + p.b, g.oy + g.wy))
    return lattice_reach(g.base, box, (g.ox + u[0], g.oy + u[1]),
                         (g.ox + v[0], g.oy + v[1]))


def is_edge(p: AuxParams, g: SubgridView, u, v) -> bool:
    """The literal boundary-graph edge rule: v north-east of u, the
    gridline filter, and a path inside a block holding both."""
    if u == v or v[0] < u[0] or v[1] < u[1]:
        return False
    return admissible(p, u, v) and any(
        block_reach(p, g, blk, u, v) for blk in common_blocks(p, u, v))


def box_candidates(p: AuxParams, curr, v):
    """The vertices of iter_candidates(p, curr) in the target's box: those w
    with w.x <= v.x and w.y <= v.y, in run order.  No monotone path leads
    from a vertex outside the box back to v."""
    for w in iter_candidates(p, curr):
        if w[0] <= v[0] and w[1] <= v[1]:
            yield w


def reference_run(p: AuxParams, curr, v, av, ah, edge_test, candidates=None):
    """The reference run of a marker-DFS frame: first the target v, if it
    lies north-east of curr (curr excluded) in a block holding curr
    (common_blocks) and edge_test joins it to curr, whatever the markers
    say; then the vertices of candidates(p, curr), other than v, that one
    of their gridlines still admits and that edge_test joins to curr, in
    that order.  By default the candidates are box_candidates(p, curr, v):
    the east column of curr's north-eastmost block going north, then its
    north row going west, cut to v's box.  A given enumeration is taken as
    it is, box or not.

    av[i] is the y of the topmost vertex pushed on vertical gridline i (-1
    while there is none), ah[j] the x of the leftmost on horizontal
    gridline j (past the lattice while there is none).  A vertical line
    admits w while its marker lies strictly below w, a horizontal one while
    its marker lies strictly right of w.  The markers are read afresh for
    every candidate, and each admitted one costs an edge test.
    """
    if (curr != v and v[0] >= curr[0] and v[1] >= curr[1]
            and common_blocks(p, curr, v) and edge_test(curr, v)):
        yield v
    b = p.b
    run = box_candidates(p, curr, v) if candidates is None else candidates(p, curr)
    for w in run:
        x, y = w
        if w != v and ((x % b == 0 and av[x // b] < y)
                       or (y % b == 0 and ah[y // b] > x)) and edge_test(curr, w):
            yield w


def reference_marker_dfs(p: AuxParams, u, v, edge_test, log) -> bool:
    """The marker DFS from u to v with full-width marker arrays: k+1
    entries a side, indexed by gridline, whatever the target's box.  Each
    frame is a reference_run on edge_test; every push, appended to log,
    moves each marker that admits the vertex onto it.  Returns True once a
    run yields v, False once the stack is empty."""
    b = p.b
    av = [-1] * (p.k + 1)
    ah = [p.n + 1] * (p.k + 1)
    stack = []
    w = u
    while True:
        x, y = w
        if x % b == 0 and av[x // b] < y:
            av[x // b] = y
        if y % b == 0 and ah[y // b] > x:
            ah[y // b] = x
        log.append(w)
        stack.append(reference_run(p, w, v, av, ah, edge_test))
        while (w := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return False
        if w == v:
            return True


def _block_boundary(p: AuxParams, bx: int, by: int):
    b = p.b
    x0, y0 = bx * b, by * b
    out = [(x0 + x, y0) for x in range(b + 1)]
    out += [(x0 + b, y0 + y) for y in range(1, b + 1)]
    out += [(x0 + x, y0 + b) for x in range(b - 1, -1, -1)]
    out += [(x0, y0 + y) for y in range(b - 1, 0, -1)]
    return out


class DecompositionOracle:
    """Per-instance closures of every block, and everything derived from
    them: the explicit boundary-graph edge set, the engine's endpoint
    augmentation, and boundary-graph reachability."""

    def __init__(self, p: AuxParams, g: SubgridView):
        self.p = p
        self.g = g
        self.block_closure = {}
        self.block_boundary = {}
        for by in range(p.k):
            for bx in range(p.k):
                bv = g.sub(bx * p.b, by * p.b, p.b)
                self.block_closure[(bx, by)] = closure_bits(bv)
                self.block_boundary[(bx, by)] = _block_boundary(p, bx, by)

    def path_in_block(self, block, u, v) -> bool:
        bx, by = block
        index, rows = self.block_closure[block]
        lu = (u[0] - bx * self.p.b, u[1] - by * self.p.b)
        lv = (v[0] - bx * self.p.b, v[1] - by * self.p.b)
        return (rows[index[lu]] >> index[lv]) & 1 == 1

    def boundary_edges(self):
        """The literal boundary-graph edge set, sorted."""
        p = self.p
        seen = set()
        for block, verts in self.block_boundary.items():
            for u in verts:
                for v in verts:
                    if v == u or v[0] < u[0] or v[1] < u[1] or (u, v) in seen:
                        continue
                    if admissible(p, u, v) and self.path_in_block(block, u, v):
                        seen.add((u, v))
        return sorted(seen)

    def aug_out(self, u):
        """Extra out-edges the engine grants a query source: all reachable
        block boundary vertices for an interior source, block corners on
        its own line for a gridline source."""
        p = self.p
        b = p.b
        on_lines = u[0] % b == 0 or u[1] % b == 0
        out = set()
        for blk in common_blocks(p, u, u):
            for w in self.block_boundary[blk]:
                if w == u or w[0] < u[0] or w[1] < u[1]:
                    continue
                if on_lines:
                    same_line = (w[0] == u[0] and u[0] % b == 0) or (
                        w[1] == u[1] and u[1] % b == 0)
                    if not (same_line and w[0] % b == 0 and w[1] % b == 0):
                        continue  # the literal rule covers the rest
                if self.path_in_block(blk, u, w):
                    out.add(w)
        return out

    def aug_in(self, v):
        """Mirror image of aug_out for the query target."""
        p = self.p
        b = p.b
        on_lines = v[0] % b == 0 or v[1] % b == 0
        into = set()
        for blk in common_blocks(p, v, v):
            for w in self.block_boundary[blk]:
                if w == v or w[0] > v[0] or w[1] > v[1]:
                    continue
                if on_lines:
                    same_line = (w[0] == v[0] and v[0] % b == 0) or (
                        w[1] == v[1] and v[1] % b == 0)
                    if not (same_line and w[0] % b == 0 and w[1] % b == 0):
                        continue
                if self.path_in_block(blk, w, v):
                    into.add(w)
        return into


def brute_boundary_edges(p: AuxParams, g: SubgridView):
    """The boundary-graph edge set, recomputed independently."""
    return DecompositionOracle(p, g).boundary_edges()


class BoundaryReachability:
    """Reachability over the materialized boundary graph plus the engine's
    endpoint augmentation, all driven by full-memory closures."""

    def __init__(self, p: AuxParams, g: SubgridView, edges=None):
        self.p = p
        self.g = g
        self.oracle = DecompositionOracle(p, g)
        self.edges = self.oracle.boundary_edges() if edges is None else edges
        vh = gridline_vertices(p)
        self.index = {v: i for i, v in enumerate(vh)}
        self.vh = vh
        adj = [0] * len(vh)
        for a, c in self.edges:
            adj[self.index[a]] |= 1 << self.index[c]
        # reflexive-transitive closure, in reverse topological order
        closure = list(adj)
        for v in sorted(vh, key=lambda t: -(t[0] + t[1])):
            i = self.index[v]
            bits = closure[i] | (1 << i)
            targets = closure[i]
            while targets:
                j = (targets & -targets).bit_length() - 1
                targets &= targets - 1
                bits |= closure[j]
            closure[i] = bits
        self.closure = closure
        self._out_cache: dict = {}
        self._in_cache: dict = {}

    def query(self, u, v) -> bool:
        if u == v:
            return True
        outs = self._out_cache.get(u)
        if outs is None:
            outs = [self.index[w] for w in self.oracle.aug_out(u)]
            self._out_cache[u] = outs
        ins = self._in_cache.get(v)
        if ins is None:
            ins = 0
            for w in self.oracle.aug_in(v):
                ins |= 1 << self.index[w]
            self._in_cache[v] = ins
        reached = 0
        if u in self.index:
            reached |= self.closure[self.index[u]]
        for w in outs:
            reached |= self.closure[w]
        if v in self.index and (reached >> self.index[v]) & 1:
            return True
        return reached & ins != 0


def endpoint_aug_out(p: AuxParams, g: SubgridView, u):
    return DecompositionOracle(p, g).aug_out(u)


def endpoint_aug_in(p: AuxParams, g: SubgridView, v):
    return DecompositionOracle(p, g).aug_in(v)


# ---------------------------------------------------------------------------
# path-crossing exchange on one block

def boundary_cycle(b: int):
    cyc = [(x, 0) for x in range(b + 1)]
    cyc += [(b, y) for y in range(1, b + 1)]
    cyc += [(x, b) for x in range(b - 1, -1, -1)]
    cyc += [(0, y) for y in range(b - 1, 0, -1)]
    return cyc


def _strictly_between(i, j, t):
    """Is position t strictly between i and j walking forward cyclically?"""
    if i == j:
        return False
    if i < j:
        return i < t < j
    return t > i or t < j


def crossing_check(block_view: SubgridView):
    """Check the path-crossing exchange on one block.

    For boundary pairs (x, y) and (x', y') that are both edges of the block
    and interleave along the boundary cycle, paths x -> y' and x' -> y must
    exist (and hence the admissible implied pairs are edges too).  Returns
    (quadruples_checked, violations).
    """
    b = block_view.side
    index, rows = closure_bits(block_view)
    cyc = boundary_cycle(b)
    pos = {v: i for i, v in enumerate(cyc)}
    p_one = AuxParams(2 * b, 2)  # the block sits at (0, 0) of a 2x2 split

    def reaches(a, c):
        return (rows[index[a]] >> index[c]) & 1 == 1

    edges = []
    for a in cyc:
        for c in cyc:
            if c == a or c[0] < a[0] or c[1] < a[1]:
                continue
            if admissible(p_one, a, c) and reaches(a, c):
                edges.append((a, c))
    checked = 0
    bad = []
    for x, y in edges:
        px, py = pos[x], pos[y]
        for x2, y2 in edges:
            if (x2, y2) == (x, y):
                continue
            p2, q2 = pos[x2], pos[y2]
            one_way = _strictly_between(px, py, p2) and _strictly_between(
                py, px, q2)
            other = _strictly_between(py, px, p2) and _strictly_between(
                px, py, q2)
            if not (one_way or other):
                continue
            checked += 1
            if not (reaches(x, y2) and reaches(x2, y)):
                bad.append((x, y, x2, y2))
    return checked, bad
