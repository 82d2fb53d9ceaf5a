"""Counters, tracked-space accounting, and the analytic bounds.

Tracked words measure the auxiliary state the algorithm is allowed to hold:
live marker entries (one per gridline of the level's search box [u, v] on
either axis, so at most 2(k+1) per decomposition level), live stack
frames (2 words each: a vertex record plus its resume slot), a fixed
constant of locals per live level, the straight-walk cursor, and the
base case's one reach mask of side+1 bits (in words of ceil(log2(n+1))
bits) plus its locals.  The last divided level's frame sweep is such a
base case: it holds the same one mask and locals while a visit of a DFS
frame runs it, never across a push or pop, so it adds nothing to the
bound.  So is that level's sweep for the target, held before the frame
yields the target and ends the search.  So is the entry check of every
divided level: one mask and locals of the level's block side, held under
the levels above only, before the level charges its markers; the word
bound has a term for it.  The read-only input graph (with its one whole
view and each view's two window masks), the output and instrumentation
are never counted.  Space is measured by this explicit instrumentation
rather than process RSS, which is noisy and dominated by the input
itself.

Leaf work that charges nothing while it holds its words (the base case,
a straight walk, a frame sweep and the entry check) holds them through
hold, one peak update, in place of a charge and a release.

A marker DFS holds no per-vertex state.  It reports each push and pop to
note_push and note_pop, which count it and charge or release its frame; a
subclass may override them to observe the search.

edge_queries counts the edge tests of a divided level: each decides one
pair by the gridline rule and a block query.  At every divided level the
frame tests the two candidates on its vertex's own row and column, and a
target there, itself, at one edge query each; its straight walk counts
as the call at the next depth that a recursion would make.  Above the
last divided level only a target off the vertex's row and column and the
candidates strictly north-east of the vertex go through the edge test,
which recurses into the block.  At the last divided level the frame
tests a target off the vertex's row and column in its own block, at one
edge query, by one row sweep that counts one call at the next depth and
one base_case_calls.  The candidates a frame sweep reads off
its mask are not edge tests; each sweep counts one base_case_calls and
one call at the next depth.  Each entry check counts one base_case_calls
and no call: it runs inside the call of the query it checks.

The word bound is the worst case of those same charges over the levels
of the schedule; the engine charges through level_charge and base_charge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .auxgraph import decompose
from .grid import Vertex


class Metrics:
    """Per-query counters; single-query, unshared."""

    # Accounting constants (words).
    FRAME_WORDS = 2          # one stack frame: vertex + resume slot
    LEVEL_WORDS = 8          # per-level locals: params, cursors, loop state
    WALK_WORDS = 2           # straight-walk cursor + bound
    BASE_WORDS = 4           # base-case locals

    __slots__ = (
        "pushes", "pops", "edge_queries", "base_case_calls",
        "recursive_calls_by_depth", "peak_stack_by_depth",
        "peak_tracked_words", "cur_tracked_words",
        "stack_bound_violations", "visit_once_violations",
        "push_bound_violations", "k_top",
    )

    def __init__(self):
        self.pushes = 0
        self.pops = 0
        self.edge_queries = 0
        self.base_case_calls = 0
        self.recursive_calls_by_depth: list[int] = []
        self.peak_stack_by_depth: list[int] = []
        self.peak_tracked_words = 0
        self.cur_tracked_words = 0
        self.stack_bound_violations = 0
        self.visit_once_violations = 0
        self.push_bound_violations = 0
        self.k_top: int | None = None

    # -- space -------------------------------------------------------------
    def charge(self, words: int) -> None:
        self.cur_tracked_words += words
        if self.cur_tracked_words > self.peak_tracked_words:
            self.peak_tracked_words = self.cur_tracked_words

    def release(self, words: int) -> None:
        self.cur_tracked_words -= words

    def hold(self, words: int) -> None:
        """charge(words) then release(words) in one peak update: for leaf
        work that charges nothing while it holds its words."""
        if self.cur_tracked_words + words > self.peak_tracked_words:
            self.peak_tracked_words = self.cur_tracked_words + words

    # -- time --------------------------------------------------------------
    def note_call(self, depth: int) -> None:
        by_depth = self.recursive_calls_by_depth
        while len(by_depth) <= depth:
            by_depth.append(0)
        by_depth[depth] += 1

    def note_push(self, depth: int, w: Vertex, frames: int) -> None:
        """A marker DFS at depth pushed w as its frames-th live frame."""
        self.pushes += 1
        self.charge(self.FRAME_WORDS)
        peaks = self.peak_stack_by_depth
        while len(peaks) <= depth:
            peaks.append(0)
        if frames > peaks[depth]:
            peaks[depth] = frames

    def note_pop(self) -> None:
        """A marker DFS popped its top frame."""
        self.pops += 1
        self.release(self.FRAME_WORDS)

    @property
    def recursive_calls(self) -> int:
        return sum(self.recursive_calls_by_depth)

    @property
    def peak_stack(self) -> int:
        return max(self.peak_stack_by_depth, default=0)


def level_charge(markers: int) -> int:
    """Words a divided level holds besides its frames: its marker entries,
    one per gridline of its search box (auxgraph.box_gridlines), plus its
    locals.  A box spans at most k+1 gridlines on either axis, so 2(k+1)
    entries are the worst case."""
    return markers + Metrics.LEVEL_WORDS


def base_charge(side: int, n: int) -> int:
    """Words the base case holds on a side-`side` block of a side-n graph:
    one (side+1)-bit reach mask, in words of n.bit_length() =
    ceil(log2(n+1)) bits, plus its locals."""
    return -(-(side + 1) // n.bit_length()) + Metrics.BASE_WORDS


@dataclass
class Bounds:
    """Analytic node-expansion and tracked-word bounds, each scaled by a
    plain multiplier."""

    c_t: float = 1.0
    c_s: float = 1.0

    def call_bound(self, n: int, k: int) -> float:
        return self.c_t * predicted_calls(n, k)

    def word_bound(self, n: int, k: int) -> float:
        return self.c_s * predicted_words(n, k)


def predicted_calls(n: int, k: int) -> float:
    """Exact unrolling of the work recurrence over the engine's levels:
    P(n) = 8n^2 (P(n/k) + 1) above the base, k^2 at or below it, where n
    is each level's unpadded side."""
    sides = []
    for p in decompose(n, k)[:-1]:
        sides.append(n)
        n = p.b
    calls = float(k * k)
    for side in reversed(sides):
        calls = 8.0 * side * side * (calls + 1.0)
    return calls


def predicted_words(n: int, k: int) -> int:
    """The most tracked words a query on a side-n graph under divisor k can
    charge, unrolled over decompose(n, k): each divided level holds its
    level_charge for the worst case of 2(k+1) marker entries, a box that
    spans every gridline, plus at most 2k+3 frames, and the bottom holds
    the larger of a straight walk and a base case on the last block side
    (n when no level divides).  Each divided level's entry check holds one
    base case on that level's block side under the levels above it, before
    the level charges its own; where that is more than the levels below
    would hold, it sets the bound."""
    words = 0
    entry = 0
    b = n
    for p in decompose(n, k)[:-1]:
        b = p.b
        entry = max(entry, words + base_charge(b, n))
        words += level_charge(2 * (p.k + 1)) + Metrics.FRAME_WORDS * (2 * p.k + 3)
    return max(entry, words + max(Metrics.WALK_WORDS, base_charge(b, n)))


# Multipliers for callers that still pass them to Bounds; the bounds are
# derived, so neither scales anything.
DEFAULT_C_T = 1.0
DEFAULT_C_S = 1.0


def check_bounds(metrics: Metrics, bounds: Bounds, n: int, k: int) -> dict:
    """Machine-readable pass/fail report for both bounds."""

    def part(measured: float, predicted: float) -> dict:
        return {
            "measured": measured,
            "predicted": predicted,
            "ratio": (measured / predicted) if predicted else 0.0,
            "passed": measured <= predicted,
        }

    calls = part(metrics.recursive_calls, bounds.call_bound(n, k))
    words = part(metrics.peak_tracked_words, bounds.word_bound(n, k))
    return {"calls": calls, "words": words, "passed": calls["passed"] and words["passed"]}
