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


@dataclass(frozen=True)
class AuxParams:
    """Decomposition parameters: side n, divisor k, block side b = n/k."""

    n: int
    k: int
    b: int = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n % self.k != 0:
            raise ValueError(f"k={self.k} must divide n={self.n}")
        if self.n // self.k < 1:
            raise ValueError("block side must be >= 1")
        object.__setattr__(self, "b", self.n // self.k)


def is_base_side(side: int, k: int) -> bool:
    """The recursion's cutoff: a side of at most k is the base case."""
    return side <= k


def decompose(side: int, k: int) -> tuple[AuxParams | None, ...]:
    """The decomposition of a side-`side` problem at every depth.

    Until a side is a base side (is_base_side) it is padded to a multiple
    of k and divided k ways, and the next side is the block side; the last
    entry, None, is the base case.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    levels: list[AuxParams | None] = []
    while not is_base_side(side, k):
        p = AuxParams(-(-side // k) * k, k)
        levels.append(p)
        side = p.b
    levels.append(None)
    return tuple(levels)


def is_gridline_vertex(p: AuxParams, v: Vertex) -> bool:
    return v[0] % p.b == 0 or v[1] % p.b == 0


def box_gridlines(p: AuxParams, u: Vertex, v: Vertex) -> tuple[int, int, int, int]:
    """The gridlines of the box [u, v], as (i0, nx, j0, ny): the vertical
    ones x = i*b with u.x <= x <= v.x are those with i0 <= i < i0 + nx, and
    the horizontal ones y = j*b with u.y <= y <= v.y those with
    j0 <= j < j0 + ny.  Where v lies west (south) of u, the axis's range is
    [u.x, u.x] ([u.y, u.y]), so the gridlines always include u's own.
    """
    b = p.b
    ux, uy = u
    vx, vy = v
    i0 = -(-ux // b)
    j0 = -(-uy // b)
    return (i0, (vx if vx > ux else ux) // b + 1 - i0,
            j0, (vy if vy > uy else uy) // b + 1 - j0)


# ---------------------------------------------------------------------------
# Counter-clockwise neighbor enumeration

def ne_corner(p: AuxParams, v: Vertex) -> Vertex:
    """The north-east corner (x1, y1) of the north-eastmost block holding v.

    This is the block rule.  A vertex w north-east of v shares a block with
    v iff w.x <= x1 and w.y <= y1, and then the block [x1-b, x1] x [y1-b, y1]
    holds both; off a common row and column it is their only block.  A pair
    on one gridline lies in the two blocks on either side of the line; this
    picks the east (north) one, and both show the same edges along the line.
    On the lattice's east (north) edge the block index is clamped to k-1.
    """
    b = p.b
    k = p.k - 1
    qx = v[0] // b
    qy = v[1] // b
    # conditionals, not min(): every edge test asks this
    return (qx if qx < k else k) * b + b, (qy if qy < k else k) * b + b


def iter_candidates(p: AuxParams, curr: Vertex):
    """Yield the boundary vertices north-east of curr that can pass the
    edge rule, in counter-clockwise order, lazily and without materializing
    a neighbor list.

    Candidates come from the boundary of the blocks containing curr.
    Same-gridline runs are pruned to the block corner that delimits them,
    since a non-corner vertex on curr's own row or column can never be an
    edge target.  What remains is one run: the east column of curr's
    north-eastmost block going north, then its north row going west.  The
    other blocks holding curr (curr on their east or north side) add only
    vertices of that run.
    """
    cx, cy = curr
    x1, y1 = ne_corner(p, curr)
    if x1 > cx:
        for y in range(cy, y1 + 1):      # east column, going north
            yield x1, y
        x1 -= 1                          # the column ended on the corner
    if y1 > cy:
        for x in range(x1, cx - 1, -1):  # north row, going west
            yield x, y1
