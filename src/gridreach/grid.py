"""Layered grid graphs: bit-plane storage, the LGG v1 text format,
instance generators, rectangular views (padding is a view cut past its
content window), the row sweeps over a view, and a full-memory
reachability oracle used as ground truth by the differential test
harness.

The sweeps hold one row mask each.  row_sweep is the forward closure,
row by row from a reach mask up to a target row, cut at the column it
asks about: it never spreads east of that column, so a sweep never holds
more columns than the question needs, on however wide a view it runs;
the oracle and the engine's base cases run it.  arc and arc_sweep ask
the forward question of one block, named by its east column and north
row in the view's coordinates: arc is the run order of that column and
row, and arc_sweep the first vertex of that arc a forward sweep, cut at
the east column, reaches (the engine's frame sweep, which runs on the
level's view, not on a view of the block).  row_cosweep is the backward
sweep: the columns, row by row downward, that reach a mask (the engine's
entry check).

Vertices live on the (n+1) x (n+1) lattice {0..n}^2, written (x, y) with x
growing east and y growing north.  Every edge goes exactly one unit north,
(x, y) -> (x, y+1), or one unit east, (x, y) -> (x+1, y), so a directed
path never decreases either coordinate.

LGG v1 text format::

    lgg 1 <n>
    <row y=0>
    ...
    <row y=n>

Each row has n+1 characters over {'.', 'N', 'E', 'B'} giving the outgoing
edge bits of the vertex (x=column, y=row): none, north only, east only,
both.  'N'/'B' are illegal in the top row and 'E'/'B' in the rightmost
column (no edge may leave the lattice).  Rows are newline-terminated with
no trailing whitespace; emit_lgg produces the canonical byte form and
parse_lgg(emit_lgg(g)) == g.
"""

from __future__ import annotations

import math

Vertex = tuple[int, int]  # (x, y); x east, y north

_U64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 pseudorandom generator.

    Chosen because it is trivially portable: the stream for a given seed is
    identical on every platform and Python version, which keeps generated
    instances reproducible everywhere.

    It is counter-based: after j draws the state is seed + j*GAMMA (mod
    2**64), and draw j (from 0) is the mix of seed + (j+1)*GAMMA alone, so
    draws can be computed out of order (``gen_random`` does).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _U64
        z = ((z ^ (z >> 27)) * _MIX2) & _U64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) via multiply-shift."""
        return (self.next_u64() * bound) >> 64


class LggFormatError(ValueError):
    """Malformed LGG v1 input; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class LayeredGridGraph:
    """Immutable layered grid graph on the {0..n}^2 lattice.

    Storage is two bit-planes indexed by row: bit x of ``north_rows[y]`` is
    the edge (x, y) -> (x, y+1), bit x of ``east_rows[y]`` is
    (x, y) -> (x+1, y).  The representation makes illegal directions
    unrepresentable; boundary invariants (no edge leaves the lattice) are
    checked at construction.  The graph makes its whole view once, here;
    ``SubgridView.whole`` hands out that one view.
    """

    __slots__ = ("n", "_north", "_east", "_whole")

    def __init__(self, n: int, north_rows, east_rows):
        if n < 1:
            raise ValueError("side must be >= 1")
        north_rows = tuple(north_rows)
        east_rows = tuple(east_rows)
        if len(north_rows) != n + 1 or len(east_rows) != n + 1:
            raise ValueError("expected n+1 rows per bit-plane")
        full = (1 << (n + 1)) - 1
        for y, m in enumerate(north_rows):
            if m & ~full:
                raise ValueError(f"north row {y} has bits beyond x={n}")
        if north_rows[n]:
            raise ValueError("north edge out of the top row")
        for y, m in enumerate(east_rows):
            if m & ~(full >> 1):
                raise ValueError(f"east row {y} has bits at or beyond x={n}")
        self.n = n
        self._north = north_rows
        self._east = east_rows
        self._whole = SubgridView(self)

    # Row masks are the fast path used by views and the oracle.
    def north_row(self, y: int) -> int:
        return self._north[y]

    def east_row(self, y: int) -> int:
        return self._east[y]

    def north(self, x: int, y: int) -> bool:
        """Is the edge (x, y) -> (x, y+1) present?"""
        self._check(x, y)
        return (self._north[y] >> x) & 1 == 1

    def east(self, x: int, y: int) -> bool:
        """Is the edge (x, y) -> (x+1, y) present?"""
        self._check(x, y)
        return (self._east[y] >> x) & 1 == 1

    def _check(self, x: int, y: int) -> None:
        if not (0 <= x <= self.n and 0 <= y <= self.n):
            raise ValueError(f"vertex ({x}, {y}) outside lattice of side {self.n}")

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._north) + sum(
            m.bit_count() for m in self._east
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredGridGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self._north == other._north
            and self._east == other._east
        )

    def __hash__(self) -> int:
        return hash((self.n, self._north, self._east))

    def __repr__(self) -> str:
        return f"LayeredGridGraph(n={self.n}, edges={self.edge_count})"


class SubgridView:
    """A rectangular window into a base graph; recursion never copies.

    Local coordinates run over {0..side}^2 and map to base coordinates by
    translating with ``(ox, oy)``.  Edges whose endpoints fall outside the
    content window ``(wx, wy)`` are invisible.  ``whole`` and ``sub`` are
    the only ways to make a view: ``whole`` hands out the one whole view
    the graph made when it was built, and padding is a ``sub`` that runs
    past the content window: ``sub(0, 0, s)`` with ``s >= side`` is
    addressable up to ``s`` but carries no edges beyond the window it was
    cut from.

    Every view keeps ``-1 <= wx <= side`` and, where ``wx >= 0``,
    ``ox + wx <= base.n`` (likewise for y), so a row read inside the
    window never leaves the base graph.  A view cuts its two window masks
    once, when it is made: ``north_mask`` holds columns 0..wx, the north
    edges the window shows, and ``east_mask`` columns 0..wx-1, its east
    edges.
    """

    __slots__ = ("base", "ox", "oy", "side", "wx", "wy", "north_mask", "east_mask")

    def __init__(self, base: LayeredGridGraph):
        self.base = base
        self.ox = self.oy = 0
        self.side = self.wx = self.wy = base.n
        self.north_mask = (1 << (base.n + 1)) - 1
        self.east_mask = self.north_mask >> 1

    @staticmethod
    def whole(g: LayeredGridGraph) -> "SubgridView":
        return g._whole

    def contains(self, v: Vertex) -> bool:
        return 0 <= v[0] <= self.side and 0 <= v[1] <= self.side

    # The two row reads index the base graph's bit-planes directly, not
    # through its north_row/east_row: every search step reads rows here.
    def north_row(self, y: int) -> int:
        """Bit x set iff the local edge (x, y) -> (x, y+1) is visible."""
        if y < 0 or y >= self.wy:
            return 0
        return self.base._north[self.oy + y] >> self.ox & self.north_mask

    def east_row(self, y: int) -> int:
        """Bit x set iff the local edge (x, y) -> (x+1, y) is visible."""
        if y < 0 or y > self.wy:
            return 0
        return self.base._east[self.oy + y] >> self.ox & self.east_mask

    def north(self, x: int, y: int) -> bool:
        return 0 <= x and (self.north_row(y) >> x) & 1 == 1

    def east(self, x: int, y: int) -> bool:
        return 0 <= x and (self.east_row(y) >> x) & 1 == 1

    def sub(self, ox: int, oy: int, side: int) -> "SubgridView":
        """Window of this view; the content clip propagates.  With
        ox = oy = 0 and side >= self.side this pads the view."""
        v = SubgridView.__new__(SubgridView)
        v.base = self.base
        v.ox = self.ox + ox
        v.oy = self.oy + oy
        v.side = side
        # A window of -1 shows no column (row) at all; 0 still shows the
        # west column's north edges (the south row's east edges).
        wx = self.wx - ox
        if wx > side:
            wx = side
        elif wx < -1:
            wx = -1
        wy = self.wy - oy
        if wy > side:
            wy = side
        elif wy < -1:
            wy = -1
        v.wx = wx
        v.wy = wy
        v.north_mask = m = (1 << (wx + 1)) - 1
        v.east_mask = m >> 1
        return v

    def __repr__(self) -> str:
        return (f"SubgridView(origin=({self.ox},{self.oy}), side={self.side}, "
                f"window=({self.wx},{self.wy}))")


# ---------------------------------------------------------------------------
# Serialization

# A row's cell x as the sum of its digits in the two masks' binary strings:
# ord('0') + north bit, plus 2 * (ord('0') + east bit).
_CELL_BY_SUM = bytes.maketrans(bytes(range(0x90, 0x94)), b".NEB")
_NORTH_DIGIT = str.maketrans(".NEB", "0101")
_EAST_DIGIT = str.maketrans(".NEB", "0011")
_CELLS = str.maketrans("", "", ".NEB")  # deletes every legal cell


def _row_error(row: str, y: int, n: int) -> LggFormatError:
    """The error of the first bad cell of a row of the right length."""
    for x, ch in enumerate(row):
        if ch not in ".NEB":
            return LggFormatError(f"illegal character {ch!r}", y + 2, x + 1)
        if ch in "NB" and y == n:
            return LggFormatError("north edge leaves the lattice (top row)", y + 2, x + 1)
        if ch in "EB" and x == n:
            return LggFormatError("east edge leaves the lattice (right column)",
                                  y + 2, x + 1)
    raise AssertionError("row has no bad cell")


def parse_lgg(text: str) -> LayeredGridGraph:
    """Parse LGG v1 text; raises LggFormatError with line/column on errors.

    A row is read whole: it is checked for cells outside '.NEB' and for
    edges that leave the lattice, and each bit-plane's row is the row's
    cells mapped to binary digits, read backwards as one integer.  The
    column of an error is that of the first bad cell.
    """
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
            len(lines) + 1 if len(rows) < n + 1 else n + 3,
            1,
        )
    north = [0] * (n + 1)
    east = [0] * (n + 1)
    for y, row in enumerate(rows):
        if len(row) != n + 1:
            raise LggFormatError(
                f"row length mismatch: expected {n + 1} characters, found {len(row)}",
                y + 2,
                min(len(row), n + 1) + 1,
            )
        if (row.translate(_CELLS) or row[-1] in "EB"
                or (y == n and ("N" in row or "B" in row))):
            raise _row_error(row, y, n)
        north[y] = int(row.translate(_NORTH_DIGIT)[::-1], 2)
        east[y] = int(row.translate(_EAST_DIGIT)[::-1], 2)
    return LayeredGridGraph(n, north, east)


def emit_lgg(g: LayeredGridGraph) -> str:
    """Canonical LGG v1 text for g (row y=0 first, newline-terminated).

    A row is built whole: the binary strings of its two masks, column n
    first, are added as big-endian integers with the east one doubled, so
    byte x from the end holds cell x's digit sum (_CELL_BY_SUM), and the
    little-endian bytes of the sum, translated, are the row.
    """
    n = g.n
    fmt = f"0{n + 1}b"
    out = [f"lgg 1 {n}".encode()]
    for y in range(n + 1):
        nm = int.from_bytes(format(g.north_row(y), fmt).encode(), "big")
        em = int.from_bytes(format(g.east_row(y), fmt).encode(), "big")
        out.append((nm + 2 * em).to_bytes(n + 1, "little").translate(_CELL_BY_SUM))
    return b"\n".join(out).decode() + "\n"


# ---------------------------------------------------------------------------
# Generators

def _lanes(values) -> int:
    """One int holding each value in its own 128-bit lane, the first value
    in the lowest lane."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values),
                          "little")


def _flag_lane(p: float) -> int:
    """The lane from which subtracting a draw u < 2**64 leaves the ASCII
    digit of ``next_float() < p`` in bits 64-71 and never borrows.

    next_float() is (u >> 11) * 2**-53 and p * 2**53 is exact, so the draw
    lies below p exactly when u >> 11 < t = ceil(p * 2**53), that is when
    u < t * 2**11.  The lane is ord('1') * 2**64 + t * 2**11 - 1: the
    difference keeps 0x31 in bits 64-71 when u < t * 2**11 and drops to
    0x30 otherwise.
    """
    return (ord("1") << 64) + (math.ceil(p * 2.0**53) << 11) - 1


def gen_random(n: int, p_north: float, p_east: float, seed: int) -> LayeredGridGraph:
    """Independent Bernoulli edges from a SplitMix64 stream.

    Draw order is fixed (rows y=0..n, columns x=0..n within a row; a north
    draw where y < n, then an east draw where x < n) so identical arguments
    give byte-identical graphs on every platform.

    The draws of a row are evaluated at once.  SplitMix64 is counter-based
    (draw j mixes seed + (j+1)*GAMMA alone), so the row's counters go into
    128-bit lanes of one int and the mix runs on all lanes together: every
    lane is cut to 64 bits before and after each multiply, so a product
    fills at most its own lane.  Subtracting the draws from ``_flag_lane``
    constants turns each into the digit of ``next_float() < p``, and the
    row masks are read off those digits.  The graph equals the one drawn a
    float at a time through ``SplitMix64.next_float`` in the order above.
    """
    if not (0.0 <= p_north <= 1.0 and 0.0 <= p_east <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if n < 1:
        raise ValueError("side must be >= 1")
    width = 2 * n + 1  # a row's draws below the top: N E N E ... E N
    ones = _lanes([1] * width)
    mask = _U64 * ones
    # Lane i holds the counter of the row's draw i: seed + (i+1)*GAMMA for
    # row 0, and every row advances it by width*GAMMA.
    counters = (seed & _U64) * ones + _lanes((i + 1) * _GAMMA for i in range(width))
    row_step = (width * _GAMMA & _U64) * ones
    kn = _flag_lane(p_north)
    ke = _flag_lane(p_east)
    row_flags = _lanes([kn, ke] * n + [kn])
    # The top row draws only its n east edges; the other n+1 lanes run
    # past the end of the stream and are dropped.
    top_flags = _lanes([ke] * width)
    north = [0] * (n + 1)
    east = [0] * (n + 1)
    for y in range(n + 1):
        z = counters & mask
        counters = z + row_step
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (row_flags if y < n else top_flags) - ((z ^ (z >> 31)) & mask)
        # Big-endian bytes put the last lane first; byte 7 of each 16 is
        # its flag digit, so the digits read from column n down to 0.
        digits = z.to_bytes(16 * width, "big")[7::16]
        if y < n:
            north[y] = int(digits[::2], 2)
            east[y] = int(digits[1::2], 2)
        else:
            east[y] = int(digits[-n:], 2)
    return LayeredGridGraph(n, north, east)


FAMILIES = ("full", "empty", "staircase", "single_path", "random")


def gen_family(name: str, n: int) -> LayeredGridGraph:
    """Deterministic instance families.

    full: every legal edge.  empty: none.  staircase: alternate east/north
    along the diagonal only.  single_path: one monotone (0,0) -> (n,n) path
    drawn from a SplitMix64 stream seeded with n.
    """
    if n < 1:
        raise ValueError("side must be >= 1")
    north = [0] * (n + 1)
    east = [0] * (n + 1)
    if name == "full":
        for y in range(n + 1):
            if y < n:
                north[y] = (1 << (n + 1)) - 1
            east[y] = (1 << n) - 1
    elif name == "empty":
        pass
    elif name == "staircase":
        for i in range(n):
            east[i] |= 1 << i          # (i, i) -> (i+1, i)
            north[i] |= 1 << (i + 1)   # (i+1, i) -> (i+1, i+1)
    elif name == "single_path":
        rng = SplitMix64(n)
        x, y = 0, 0
        while x < n or y < n:
            rem_e = n - x
            rem_n = n - y
            if rem_e > 0 and rng.next_below(rem_e + rem_n) < rem_e:
                east[y] |= 1 << x
                x += 1
            else:
                north[y] |= 1 << x
                y += 1
    else:
        raise ValueError(f"unknown family {name!r}")
    return LayeredGridGraph(n, north, east)


# ---------------------------------------------------------------------------
# Full-memory oracle

def row_sweep(view: SubgridView, reach: int, y: int, ty: int, x: int) -> int:
    """The row sweep from row y up to row ty >= y, cut at column x.

    reach holds columns reached in row y, none east of x.  Each row is
    closed under its east edges west of column x and, below ty, lifted
    through its north edges into the next row.  Returns the closed reach
    mask of row ty (0 once a lift leaves nothing).  A mask already closed
    in row y may be passed back in to continue the sweep.

    The cut is exact for every column up to x: a monotone path to a vertex
    of column x or west of it never takes an east edge at or past x.  So
    the mask never spreads east of x, and a sweep on a wide view holds no
    more columns than the block it asks about.

    A row closes in one carry step.  A run of east edges at columns a..c-1
    joins columns a..c.  Adding the reached columns of the run, reach & em,
    to em carries from the lowest reached column i through the run into
    column c, and the xor with em leaves columns i..c set.
    """
    cut = (1 << x) - 1  # the east edges west of column x
    while True:
        em = view.east_row(y) & cut
        reach |= (em + (reach & em)) ^ em
        if y == ty:
            return reach
        reach &= view.north_row(y)
        if reach == 0:
            return 0
        y += 1


def arc(x1: int, y1: int, ty: int, ey: int, top: int):
    """The vertices of a block's arc in run order, for the block whose east
    column is x1 and north row y1: the east-column rows ty..ey-1 going
    north, then the north-row columns set in top, the highest first.  Bit
    x1 of top is the corner (x1, y1), which so comes between the two."""
    for y in range(ty, ey):
        yield x1, y
    while top:
        x = top.bit_length() - 1
        yield x, y1
        top ^= 1 << x


def arc_sweep(view: SubgridView, x1: int, y1: int, reach: int, y: int, ty: int, ey: int,
              top: int) -> Vertex | None:
    """The first vertex of arc(x1, y1, ty, ey, top) that the forward row
    sweep from row y reaches, or None.  reach holds the columns reached in
    row y, not yet closed, none east of x1; y <= ty where the arc has
    east-column rows (ty < ey), else y <= y1.

    The sweep jumps over the rows below ty in one row_sweep, then reads the
    east column's bit of each of the rows ty..ey-1, and takes the north
    row's reached columns of top as the set bits of the top row's mask.
    Every row_sweep is cut at the east column x1, so the mask never spreads
    past the block, on whatever view the block lies.  The sweep reads no
    row above the arc's highest, and each row it reads is closed once:
    between the east-column rows, the closed mask is lifted into the next
    row before the sweep goes on.
    """
    while ty < ey:
        reach = row_sweep(view, reach, y, ty, x1)
        if (reach >> x1) & 1:
            return x1, ty
        reach &= view.north_row(ty)  # lifted, so no row closes twice
        if not reach:
            return None
        ty += 1
        y = ty
    if top:
        top &= row_sweep(view, reach, y, y1, x1)
        if top:
            return top.bit_length() - 1, y1
    return None


def row_cosweep(view: SubgridView, co: int, y: int, ty: int, lo: int,
                stop: int) -> tuple[int, int]:
    """The backward row sweep from row y down to row ty <= y, inside
    columns lo..: co holds the columns of row y that reach the sweep's
    targets, and the result is (row, mask) at the first row where the mask
    meets stop, at row ty, or at the row where the mask empties.

    Each row is closed westward, column x >= lo joining where its east edge
    leads into the mask, by doubling shifts: g holds the columns with s
    east edges in a row, and the mask takes the columns s west of it that g
    holds.  The mask never grows east, so only the edges west of its
    highest column count: on a wide view that keeps the shifts to the width
    of the box.  Below, the closed mask is lowered through the north edges
    into the row beneath.  stop is 0 or one column (a one-bit mask) at or
    east of lo.  Before a row closes, stop's run of east edges is tested
    against the mask, which meets it exactly where the closed mask would
    hold stop; a hit returns the row's mask, unclosed, with stop added, so
    a YES pays for no closing.  At row ty the mask is closed; where it
    empties it is 0.
    """
    edges = None  # lo .. below co's top; a YES on row y never needs them
    while True:
        em = view.east_row(y)
        if stop and ((em + (stop & em)) ^ em | stop) & co:
            return y, co | stop
        if edges is None:
            edges = ((1 << co.bit_length() >> 1) - 1) >> lo << lo
        g = em & edges
        s = 1
        while g:
            co |= (co >> s) & g
            g &= g >> s
            s <<= 1
        if y == ty:
            return y, co
        y -= 1
        co &= view.north_row(y)
        if not co:
            return y, 0


def oracle_reach(view: SubgridView, s: Vertex, t: Vertex) -> bool:
    """Ground-truth reachability with unrestricted memory.

    The row sweep over bitmasks (row_sweep) from s's row to t's, cut at
    t's column.  Correct because every path visits rows in nondecreasing
    order.
    """
    if not view.contains(s):
        raise ValueError(f"source {s} outside view")
    if not view.contains(t):
        raise ValueError(f"target {t} outside view")
    if t == s:
        return True
    if t[0] < s[0] or t[1] < s[1]:
        return False
    return (row_sweep(view, 1 << s[0], s[1], t[1], t[0]) >> t[0]) & 1 == 1
