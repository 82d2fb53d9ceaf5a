"""Counters, tracked-space accounting, and analytic recurrence bounds.

Tracked words measure the auxiliary state the algorithm is allowed to hold:
live marker entries (2(k+1) per decomposition level), live stack frames
(2 words each: a vertex record plus its resume slot), a fixed constant of
locals per live level, the straight-walk cursor, and the base case's one
reach mask of side+1 bits (in words of ceil(log2(n+1)) bits) plus its
locals.  The read-only input graph, the output and instrumentation are
never counted.  Space is measured by this explicit instrumentation rather
than process RSS, which is noisy and dominated by the input itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .auxgraph import decompose


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
        "push_bound_violations", "k_top", "push_log",
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
        self.push_log: list | None = None  # tests may set to record pushes

    # -- space -------------------------------------------------------------
    def charge(self, words: int) -> None:
        self.cur_tracked_words += words
        if self.cur_tracked_words > self.peak_tracked_words:
            self.peak_tracked_words = self.cur_tracked_words

    def release(self, words: int) -> None:
        self.cur_tracked_words -= words

    # -- time --------------------------------------------------------------
    def note_call(self, depth: int) -> None:
        by_depth = self.recursive_calls_by_depth
        while len(by_depth) <= depth:
            by_depth.append(0)
        by_depth[depth] += 1

    def note_stack(self, depth: int, frames: int) -> None:
        peaks = self.peak_stack_by_depth
        while len(peaks) <= depth:
            peaks.append(0)
        if frames > peaks[depth]:
            peaks[depth] = frames

    @property
    def recursive_calls(self) -> int:
        return sum(self.recursive_calls_by_depth)

    @property
    def peak_stack(self) -> int:
        return max(self.peak_stack_by_depth, default=0)


@dataclass
class Bounds:
    """Analytic node-expansion and tracked-word bounds with calibration
    constants; monotone nondecreasing in n for fixed k."""

    c_t: float = 1.0
    c_s: float = 1.0

    def call_bound(self, n: int, k: int) -> float:
        return predicted_calls(n, k, self.c_t)

    def word_bound(self, n: int, k: int) -> float:
        return predicted_words(n, k, self.c_s)


def _divided_sides(n: int, k: int) -> list[int]:
    """The unpadded side of each divided level of decompose(n, k), top
    first."""
    sides = []
    for p in decompose(n, k)[:-1]:
        sides.append(n)
        n = p.b
    return sides


def predicted_calls(n: int, k: int, c_t: float = 1.0) -> float:
    """Exact unrolling of the work recurrence over the engine's levels:
    P(n) = 8n^2 (P(n/k) + c_t) above the base, c_t * k^2 at or below it,
    where n is each level's unpadded side."""
    calls = c_t * k * k
    for side in reversed(_divided_sides(n, k)):
        calls = 8.0 * side * side * (calls + c_t)
    return calls


def predicted_words(n: int, k: int, c_s: float = 1.0) -> float:
    """Exact unrolling of the space recurrence over the engine's levels:
    W(n) = W(n/k) + c_s k ceil(log2 n) above the base, c_s * k^2 at or
    below it, where n is each level's unpadded side."""
    words = c_s * k * k
    for side in reversed(_divided_sides(n, k)):
        words += c_s * k * math.ceil(math.log2(side))
    return words


# Calibration reference: full grid n=16, epsilon=1.0 (k=4), corner-to-corner
# query (measured 9 recursive calls and a 36-word peak against raw bounds of
# 34816 and 32).  Frozen from that run, with a small margin on the space
# constant; see README for the procedure.
DEFAULT_C_T = 1.0
DEFAULT_C_S = 1.25


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


def calibrate(measured_calls: int, measured_words: int, n: int, k: int) -> Bounds:
    """Constants that make the reference measurement sit exactly at ratio 1."""
    c_t = max(1.0, measured_calls / predicted_calls(n, k, 1.0))
    c_s = max(1.0, measured_words / predicted_words(n, k, 1.0))
    return Bounds(c_t=c_t, c_s=c_s)
