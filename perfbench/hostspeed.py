"""Host-speed reference for the query benchmark.

The benchmark shares a few virtual CPUs with other work on the same host,
whose load slows every process on them, by up to ~40% and for minutes at a
time.  Against that, a fixed piece of pure-Python work that never touches
gridreach is timed throughout a run, and each query's wall time is scaled
by ``REF_NS / (reference time measured just before it)``: every reported
time is what the query would take on a host where the reference takes
``REF_NS``.  A change to gridreach moves the query times and not the
reference, so it shows in full; a slower host moves both, and cancels.
"""

from __future__ import annotations

import time

# About the reference's fastest time on a 2-vCPU cloud host with Python
# 3.11.7 (95-185 us over 10 s there), so that scaled times read close to
# plain wall time on that host when its neighbours are idle.
REF_NS = 100_000
EVERY_NS = 20_000_000  # sample the reference this often while queries run
REPEAT = 3  # back-to-back executions per sample; the fastest counts

_ROWS = [(i * 0x9E3779B1) & 0xFFFFFFFF for i in range(64)]


def reference(rounds: int = 400) -> int:
    """Fixed work in the engine's idiom: row masks, indexing and calls."""
    rows = _ROWS
    acc = 0
    for i in range(rounds):
        row = rows[i & 63]
        if (row >> (i & 31)) & 1:
            acc = _step(acc, row, i)
        else:
            acc ^= row & ((2 << (i & 15)) - 1)
    return acc


def _step(acc: int, row: int, i: int) -> int:
    return (acc + (row >> 3) + i) & 0xFFFFFFFF


class HostSpeed:
    """The latest reference time, refreshed every ``EVERY_NS``."""

    def __init__(self):
        self.samples = []  # reference ns of every sample taken
        self.next_ns = 0
        self.ref_ns = REF_NS

    def sample(self) -> int:
        clock = time.perf_counter_ns
        best = None
        for _ in range(REPEAT):
            t0 = clock()
            reference()
            dt = clock() - t0
            if best is None or dt < best:
                best = dt
        self.ref_ns = best
        self.samples.append(best)
        self.next_ns = clock() + EVERY_NS
        return best

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() >= self.next_ns:
            self.sample()

    def scale(self, ns: int, ref_ns: float | None = None) -> float:
        """``ns`` of wall time as time on the reference host, by default at
        the speed of the latest sample."""
        return ns * REF_NS / (ref_ns or self.ref_ns)
