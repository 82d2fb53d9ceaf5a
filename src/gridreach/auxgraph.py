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

    Candidates come from the boundary of the blocks containing curr.
    Same-gridline runs are pruned to the block corner that delimits them,
    since a non-corner vertex on curr's own row or column can never be an
    edge target (targets off the gridline vertex set travel separately via
    ``extra``).  What remains is one run: the east column of curr's
    north-eastmost block going north, then its north row going west.  The
    other blocks holding curr (curr on their east or north side) add only
    vertices of that run.  ``extra`` injects one extra candidate, merged in
    by key.
    """
    b = p.b
    k = p.k
    sh = p.slope_shift
    cx, cy = curr
    x1 = min(cx // b, k - 1) * b + b
    y1 = min(cy // b, k - 1) * b + b

    ekey = None
    if extra is not None and extra != curr:
        ex, ey = extra
        if ex >= cx and ey >= cy:
            ddx = ex - cx
            ddy = ey - cy
            ekey = ((ddy << sh) // ddx, ddx if ddx > ddy else ddy,
                    ex, ey) if ddx else (SLOPE_INF, ddy, ex, ey)

    dx = x1 - cx
    if dx:
        for y in range(cy, y1 + 1):     # east column, slope rising
            dy = y - cy
            key = ((dy << sh) // dx, dx if dx > dy else dy, x1, y)
            if ekey is not None and ekey <= key:
                if ekey < key:
                    yield ekey, extra
                ekey = None
            yield key, (x1, y)
        x1 -= 1                         # the column ended on the corner
    dy = y1 - cy
    if dy:
        for x in range(x1, cx - 1, -1):  # north row, slope rising
            ddx = x - cx
            key = ((dy << sh) // ddx, ddx if ddx > dy else dy,
                   x, y1) if ddx else (SLOPE_INF, dy, x, y1)
            if ekey is not None and ekey <= key:
                if ekey < key:
                    yield ekey, extra
                ekey = None
            yield key, (x, y1)
    if ekey is not None:
        yield ekey, extra
