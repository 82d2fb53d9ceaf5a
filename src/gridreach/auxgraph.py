"""Block decomposition geometry and the implicit boundary graph.

A side-n problem divided k ways (block side b = n/k) has k+1 vertical
gridlines (x = 0, b, ..., n), k+1 horizontal ones, and k^2 closed b x b
blocks.  The boundary graph lives on the gridline vertices: within one
block, two of them are joined iff the block contains a directed path
between them, except that two vertices on a common gridline are only
joined when both are lattice corners of the block (crossings of
consecutive perpendicular gridlines).  Nothing is ever stored; edge
membership is decided on demand through a reachability callback, and
neighbors are enumerated lazily in counter-clockwise order starting due
east.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Vertex

# Sort key for neighbor enumeration: (slope class, L-inf distance, x, y).
# Direction angle ascends from due east (slope 0) to due north (SLOPE_INF);
# slopes are compared via (dy << shift) // dx, which is exact as long as
# shift exceeds twice the coordinate bit length.
SLOPE_INF = 1 << 62


@dataclass(frozen=True)
class AuxParams:
    """Decomposition parameters: side n, divisor k, block side b = n/k."""

    n: int
    k: int
    b: int = field(init=False)
    slope_shift: int = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n % self.k != 0:
            raise ValueError(f"k={self.k} must divide n={self.n}")
        if self.n // self.k < 1:
            raise ValueError("block side must be >= 1")
        object.__setattr__(self, "b", self.n // self.k)
        object.__setattr__(self, "slope_shift", 2 * self.n.bit_length() + 2)


def is_gridline_vertex(p: AuxParams, v: Vertex) -> bool:
    return v[0] % p.b == 0 or v[1] % p.b == 0


# ---------------------------------------------------------------------------
# Counter-clockwise neighbor enumeration

def iter_candidates(p: AuxParams, curr: Vertex, extra: Vertex | None = None):
    """Yield (key, vertex) for boundary vertices north-east of curr that can
    pass the edge rule, in ascending key order, lazily and without
    materializing a neighbor list.

    Candidates come from the boundary of every block containing curr.
    Same-gridline runs are pruned to the block corner that delimits them,
    since a non-corner vertex on curr's own row or column can never be an
    edge target (targets off the gridline vertex set travel separately via
    ``extra``).  Each block therefore contributes two monotone runs (its
    east column and its north row), merged on the fly.  ``extra`` injects
    one extra candidate.
    """
    b = p.b
    k = p.k
    sh = p.slope_shift
    cx, cy = curr
    inf = SLOPE_INF

    # Run = [key, x, y, dx, dy, remaining]: vertices from (x, y) stepping by
    # (dx, dy), keys strictly ascending within a run.
    heads: list[list] = []

    def add(x, y, dx, dy, count):
        ddx = x - cx
        kk = (((y - cy) << sh) // ddx, ddx if ddx > y - cy else y - cy,
              x, y) if ddx else (inf, y - cy, x, y)
        heads.append([kk, x, y, dx, dy, count - 1])

    qx, rx = divmod(cx, b)
    qy, ry = divmod(cy, b)
    bx_lo = max(qx - 1 if rx == 0 and qx > 0 else qx, 0)
    bx_hi = min(qx, k - 1)
    by_lo = max(qy - 1 if ry == 0 and qy > 0 else qy, 0)
    by_hi = min(qy, k - 1)
    for by in range(by_lo, by_hi + 1):
        y1 = by * b + b
        for bx in range(bx_lo, bx_hi + 1):
            x1 = bx * b + b
            if x1 > cx:
                add(x1, cy, 0, 1, y1 - cy + 1)   # east column, upward
            if cy < y1:
                add(x1, y1, -1, 0, x1 - cx + 1)  # north row, slope rising
    if extra is not None and extra != curr:
        ex, ey = extra
        if ex >= cx and ey >= cy:
            add(ex, ey, 0, 0, 1)

    last = None
    while heads:
        best = heads[0]
        for h in heads:
            if h[0] < best[0]:
                best = h
        key, wx, wy, dx, dy, remaining = best
        if key != last:
            yield key, (wx, wy)
            last = key
        if remaining:
            wx += dx
            wy += dy
            ddx = wx - cx
            best[0] = (((wy - cy) << sh) // ddx,
                       ddx if ddx > wy - cy else wy - cy, wx, wy) if ddx else (
                inf, wy - cy, wx, wy)
            best[1] = wx
            best[2] = wy
            best[5] = remaining - 1
        else:
            heads.remove(best)
