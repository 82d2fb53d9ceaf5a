import math

import pytest

from gridreach import (
    Bounds,
    EngineConfig,
    Metrics,
    SplitMix64,
    calibrate,
    check_bounds,
    gen_family,
    gen_random,
    predicted_calls,
    predicted_words,
    reach,
)


def test_predicted_calls_base_and_one_level():
    # at or below the base: c_t * k^2
    assert predicted_calls(4, 4, 2.0) == 2.0 * 16
    assert predicted_calls(3, 4, 1.0) == 16.0
    # one unrolling: 8 n^2 (c_t k^2 + c_t) at n = k^2
    k = 4
    n = k * k
    c_t = 1.5
    assert predicted_calls(n, k, c_t) == 8 * n * n * (c_t * k * k + c_t)


def test_predicted_words_base_and_one_level():
    k = 4
    c_s = 2.0
    assert predicted_words(4, 4, c_s) == c_s * 16
    n = k * k
    assert predicted_words(n, k, c_s) == c_s * k * k + c_s * k * math.ceil(
        math.log2(n))


def test_predicted_bounds_monotone_in_n():
    for k in (2, 3, 4):
        prev_c = prev_w = 0.0
        for n in (k, 2 * k, 4 * k, 8 * k, 16 * k):
            c = predicted_calls(n, k)
            w = predicted_words(n, k)
            assert c >= prev_c and w >= prev_w
            prev_c, prev_w = c, w


def test_predicted_rejects_bad_k():
    with pytest.raises(ValueError):
        predicted_calls(8, 1)
    with pytest.raises(ValueError):
        predicted_words(8, 1)


def test_check_bounds_zeroed_metrics_pass():
    report = check_bounds(Metrics(), Bounds(), 16, 4)
    assert report["passed"]
    assert report["calls"]["measured"] == 0
    assert report["words"]["ratio"] == 0.0


def test_measured_within_calibrated_bounds_on_reference():
    g = gen_family("full", 16)
    a = reach(g, (0, 0), (16, 16), EngineConfig(epsilon=1.0))
    m = a.metrics
    bounds = calibrate(m.recursive_calls, m.peak_tracked_words, 16, 4)
    report = check_bounds(m, bounds, 16, 4)
    assert report["passed"]
    assert report["calls"]["ratio"] <= 1.0
    assert report["words"]["ratio"] <= 1.0


def test_measured_within_bounds_fixed_k_ladder():
    # powers of one fixed divisor, per-level structure identical
    g = gen_family("full", 81)
    a = reach(g, (0, 0), (81, 81), EngineConfig(k=3))
    m = a.metrics
    bounds = calibrate(m.recursive_calls, m.peak_tracked_words, 81, 3)
    report = check_bounds(m, bounds, 81, 3)
    assert report["passed"]
    assert report["calls"]["ratio"] <= 1.0 and report["words"]["ratio"] <= 1.0


def test_random_instances_within_reference_calibration():
    """Constants calibrated once on the n=16 full grid hold over random
    instances at the same shape (call bound is loose by construction; the
    word bound needs the small frozen margin)."""
    from gridreach.metrics import DEFAULT_C_S, DEFAULT_C_T

    rng = SplitMix64(7)
    bounds = Bounds(c_t=DEFAULT_C_T, c_s=DEFAULT_C_S)
    for trial in range(25):
        g = gen_random(16, 0.5, 0.5, rng.next_u64())
        a = reach(g, (0, 0), (16, 16), EngineConfig(epsilon=1.0))
        m = a.metrics
        report = check_bounds(m, bounds, 16, m.k_top)
        assert report["calls"]["passed"]


def test_tracked_accounting_returns_to_zero():
    g = gen_random(16, 0.5, 0.5, 99)
    a = reach(g, (1, 1), (15, 14), EngineConfig(epsilon=0.5))
    m = a.metrics
    assert m.cur_tracked_words == 0
    assert m.peak_tracked_words > 0
    assert m.pops <= m.pushes


def test_counters_populated():
    g = gen_random(16, 0.6, 0.6, 5)
    a = reach(g, (0, 1), (15, 16), EngineConfig(epsilon=0.5))
    m = a.metrics
    assert m.recursive_calls == sum(m.recursive_calls_by_depth)
    assert m.peak_stack == max(m.peak_stack_by_depth)
    assert m.edge_queries >= 0 and m.base_case_calls >= 0
    d = check_bounds(m, Bounds(), 16, m.k_top)
    assert set(d) == {"calls", "words", "passed"}
    assert set(d["calls"]) == {"measured", "predicted", "ratio", "passed"}
