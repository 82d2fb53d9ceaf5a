"""Seeded workload definitions for the query benchmark.

A workload is a fixed list of reachability queries (graph, source, target)
generated from the benchmark seed.  Graphs come from the library's own
generators (their cost is part of set-up); the seeds for those generators
and the query pairs come from the benchmark's ``random.Random`` stream, so
the same seed always yields the same inputs.  ``fingerprint`` hashes the
generated graphs and pairs: two runs with equal fingerprints ran identical
inputs, and a change to a generator shows up as a new fingerprint rather
than as a change of speed.

Every workload uses the default schedule, epsilon = 1.0.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

EPSILON = 1.0


@dataclass(frozen=True)
class Workload:
    """Generator parameters of one workload.

    ``family`` is ``"random"`` (``gen_random`` with p_north = p_east = p)
    or a ``gen_family`` name.  ``pairs`` is ``"quadrant"`` (distinct pairs
    per graph, source in the south-west quadrant and target in the
    north-east one) or ``"uniform"``
    (both endpoints uniform over the lattice, a ``collinear`` share of the
    targets moved onto the source's row or column).
    """

    name: str
    family: str
    n: int
    graphs: int
    pairs_per_graph: int
    pairs: str
    p: float = 0.0
    collinear: float = 0.0

    @property
    def queries(self) -> int:
        return self.graphs * self.pairs_per_graph


# Sizes: a query's latency varies over two orders of magnitude within each
# workload, so the median and tail only repeat across seeds with thousands
# of distinct queries per run.  n=16 (3 levels, ~5 ms a query) fits a few
# thousand of them into a run; n=32 (4 levels, ~100 ms) fits ~300, whose
# median moved by a third from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        # Recursion-heavy: a NO answer exhausts every level, so base_dfs,
        # iter_candidates and the edge tests cost the most.  One or two
        # pairs per graph keep the YES share near its mean on every seed.
        Workload(name="dense-cross", family="random", p=0.7, n=16, graphs=2700,
                 pairs_per_graph=2, pairs="quadrant"),
        # The same layers on the early-exit path: every answer is YES, so
        # neighbour order and the first hit matter, exhaustion does not.
        # All 8*8 x 8*8 quadrant pairs of the one full grid, in seeded order.
        Workload(name="full-reach", family="full", n=16, graphs=1,
                 pairs_per_graph=4096, pairs="quadrant"),
        # Mostly dispatch: the direction check, straight walk and prefilter
        # answer most queries; the rest die after a few of n=512's five
        # levels.  Generating n=512 graphs makes set-up matter.  At p=0.3 the
        # 1% deepest queries did half the work, and the total work of 10 000
        # queries moved by 13% between seeds; p=0.2 makes them cheap enough
        # for 40 000 queries a run, whose total work moves by 7%.
        Workload(name="sparse-screen", family="random", p=0.2, n=512, graphs=4,
                 pairs_per_graph=10000, pairs="uniform", collinear=0.25),
    )
}


def make_inputs(gridreach, w: Workload, seed: int):
    """Generate (graphs, queries, gen_s) for workload ``w`` and ``seed``.

    ``queries`` is a list of (graph index, source, target); ``gen_s`` is the
    time the library's graph generators took.
    """
    rng = random.Random(f"gridreach-bench:{w.name}:{seed}")
    n = w.n
    t0 = time.perf_counter()
    graphs = []
    for _ in range(w.graphs):
        if w.family == "random":
            graphs.append(gridreach.gen_random(n, w.p, w.p, rng.getrandbits(63)))
        else:
            graphs.append(gridreach.gen_family(w.family, n))
    gen_s = time.perf_counter() - t0
    queries = []
    half = n // 2
    side = n - half  # targets' coordinates run over half+1..n
    for gi in range(w.graphs):
        if w.pairs == "quadrant":
            # Distinct pairs; asking for all of them only shuffles them.
            for idx in rng.sample(range(half * half * side * side), w.pairs_per_graph):
                si, ti = divmod(idx, side * side)
                s = divmod(si, half)
                tx, ty = divmod(ti, side)
                queries.append((gi, s, (half + 1 + tx, half + 1 + ty)))
            continue
        for _ in range(w.pairs_per_graph):
            s = (rng.randrange(n + 1), rng.randrange(n + 1))
            t = (rng.randrange(n + 1), rng.randrange(n + 1))
            if rng.random() < w.collinear:
                t = (s[0], t[1]) if rng.random() < 0.5 else (t[0], s[1])
            queries.append((gi, s, t))
    return graphs, queries, gen_s


def fingerprint(graphs, queries) -> str:
    """SHA-256 prefix over every graph's bit-planes and the query list."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(f"g{g.n}:".encode())
        for y in range(g.n + 1):
            h.update(f"{g.north_row(y):x},{g.east_row(y):x};".encode())
    for gi, s, t in queries:
        h.update(f"q{gi}:{s[0]},{s[1]}>{t[0]},{t[1]};".encode())
    return h.hexdigest()[:16]
