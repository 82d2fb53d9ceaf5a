"""Independent oracles shared by the test modules.

Everything here recomputes structure from first principles (full closures,
explicit edge rules) so the engine under test is never used to check
itself.
"""

from __future__ import annotations

from gridreach import AuxParams, SubgridView, oracle_reach


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
    bx, by = block
    bv = g.sub(bx * p.b, by * p.b, p.b)
    return oracle_reach(bv, (u[0] - bx * p.b, u[1] - by * p.b),
                        (v[0] - bx * p.b, v[1] - by * p.b))


def is_edge(p: AuxParams, g: SubgridView, u, v) -> bool:
    """The literal boundary-graph edge rule: v north-east of u, the
    gridline filter, and a path inside a block holding both."""
    if u == v or v[0] < u[0] or v[1] < u[1]:
        return False
    return admissible(p, u, v) and any(
        block_reach(p, g, blk, u, v) for blk in common_blocks(p, u, v))


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
