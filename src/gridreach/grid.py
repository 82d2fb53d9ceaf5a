"""Layered grid graphs: bit-plane storage, the LGG v1 text format,
instance generators, rectangular views, and a full-memory reachability
oracle used as ground truth by the differential test harness.

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

Vertex = tuple[int, int]  # (x, y); x east, y north

_U64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom generator.

    Chosen because it is trivially portable: the stream for a given seed is
    identical on every platform and Python version, which keeps generated
    instances reproducible everywhere.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
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
    checked at construction.
    """

    __slots__ = ("n", "_north", "_east")

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
    content window ``(wx, wy)`` are invisible: that is how logical padding
    works (a padded view is addressable up to ``side`` but carries no edges
    beyond the window it was padded from).
    """

    __slots__ = ("base", "ox", "oy", "side", "wx", "wy")

    def __init__(self, base: LayeredGridGraph, ox: int, oy: int, side: int,
                 wx: int | None = None, wy: int | None = None):
        self.base = base
        self.ox = ox
        self.oy = oy
        self.side = side
        self.wx = side if wx is None else wx
        self.wy = side if wy is None else wy

    @classmethod
    def whole(cls, g: LayeredGridGraph) -> "SubgridView":
        return cls(g, 0, 0, g.n)

    def contains(self, v: Vertex) -> bool:
        return 0 <= v[0] <= self.side and 0 <= v[1] <= self.side

    def north_row(self, y: int) -> int:
        """Bit x set iff the local edge (x, y) -> (x, y+1) is visible."""
        if y < 0 or y >= self.wy:
            return 0
        ay = self.oy + y
        if ay >= self.base.n:
            return 0
        m = self.base.north_row(ay) >> self.ox
        return m & ((1 << (self.wx + 1)) - 1)

    def east_row(self, y: int) -> int:
        """Bit x set iff the local edge (x, y) -> (x+1, y) is visible."""
        if y < 0 or y > self.wy:
            return 0
        ay = self.oy + y
        if ay > self.base.n:
            return 0
        m = self.base.east_row(ay) >> self.ox
        return m & ((1 << self.wx) - 1) if self.wx > 0 else 0

    def north(self, x: int, y: int) -> bool:
        return 0 <= x and (self.north_row(y) >> x) & 1 == 1

    def east(self, x: int, y: int) -> bool:
        return 0 <= x and (self.east_row(y) >> x) & 1 == 1

    def sub(self, ox: int, oy: int, side: int) -> "SubgridView":
        """Window of this view; the content clip propagates."""
        v = SubgridView.__new__(SubgridView)
        v.base = self.base
        v.ox = self.ox + ox
        v.oy = self.oy + oy
        v.side = side
        wx = self.wx - ox
        if wx > side:
            wx = side
        elif wx < 0:
            wx = 0
        wy = self.wy - oy
        if wy > side:
            wy = side
        elif wy < 0:
            wy = 0
        v.wx = wx
        v.wy = wy
        return v

    def padded(self, new_side: int) -> "SubgridView":
        """Same window, addressable out to new_side with no added edges."""
        if new_side < self.side:
            raise ValueError("padding may only grow a view")
        return SubgridView(self.base, self.ox, self.oy, new_side, self.wx, self.wy)

    def __repr__(self) -> str:
        return (f"SubgridView(origin=({self.ox},{self.oy}), side={self.side}, "
                f"window=({self.wx},{self.wy}))")


# ---------------------------------------------------------------------------
# Serialization

_CHAR_BY_BITS = {(False, False): ".", (True, False): "N", (False, True): "E",
                 (True, True): "B"}


def parse_lgg(text: str) -> LayeredGridGraph:
    """Parse LGG v1 text; raises LggFormatError with line/column on errors."""
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
        line_no = y + 2
        if len(row) != n + 1:
            raise LggFormatError(
                f"row length mismatch: expected {n + 1} characters, found {len(row)}",
                line_no,
                min(len(row), n + 1) + 1,
            )
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


def emit_lgg(g: LayeredGridGraph) -> str:
    """Canonical LGG v1 text for g (row y=0 first, newline-terminated)."""
    out = [f"lgg 1 {g.n}"]
    for y in range(g.n + 1):
        nm = g.north_row(y)
        em = g.east_row(y)
        out.append("".join(
            _CHAR_BY_BITS[((nm >> x) & 1 == 1, (em >> x) & 1 == 1)]
            for x in range(g.n + 1)
        ))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Generators

def gen_random(n: int, p_north: float, p_east: float, seed: int) -> LayeredGridGraph:
    """Independent Bernoulli edges from a SplitMix64 stream.

    Draw order is fixed (rows y=0..n, columns x=0..n within a row; a north
    draw where y < n, then an east draw where x < n) so identical arguments
    give byte-identical graphs on every platform.
    """
    if not (0.0 <= p_north <= 1.0 and 0.0 <= p_east <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if n < 1:
        raise ValueError("side must be >= 1")
    rng = SplitMix64(seed)
    north = [0] * (n + 1)
    east = [0] * (n + 1)
    for y in range(n + 1):
        nm = 0
        em = 0
        for x in range(n + 1):
            if y < n and rng.next_float() < p_north:
                nm |= 1 << x
            if x < n and rng.next_float() < p_east:
                em |= 1 << x
        north[y] = nm
        east[y] = em
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

def oracle_reach(view: SubgridView, s: Vertex, t: Vertex) -> bool:
    """Ground-truth reachability with unrestricted memory.

    Row-sweep over bitmasks: close each row under east edges, then lift the
    reachable set through the row's north edges.  Correct because every
    path visits rows in nondecreasing order.
    """
    if not view.contains(s):
        raise ValueError(f"source {s} outside view")
    if not view.contains(t):
        raise ValueError(f"target {t} outside view")
    if t == s:
        return True
    if t[0] < s[0] or t[1] < s[1]:
        return False
    reach = 1 << s[0]
    for y in range(s[1], t[1] + 1):
        em = view.east_row(y)
        while True:
            spread = reach | ((reach & em) << 1)
            if spread == reach:
                break
            reach = spread
        if y == t[1]:
            break
        reach &= view.north_row(y)
        if reach == 0:
            return False
    return (reach >> t[0]) & 1 == 1
