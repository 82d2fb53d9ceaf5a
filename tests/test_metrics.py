import pytest

from gridreach import (
    Bounds,
    EngineConfig,
    Metrics,
    SplitMix64,
    check_bounds,
    choose_k,
    gen_family,
    gen_random,
    predicted_calls,
    predicted_words,
    reach,
)
from gridreach.auxgraph import decompose
from gridreach.metrics import base_charge, level_charge


def test_predicted_calls_base_and_one_level():
    # at or below the base: k^2
    assert predicted_calls(4, 4) == 16.0
    assert predicted_calls(3, 4) == 16.0
    # one unrolling: 8 n^2 (k^2 + 1) at n = k^2
    k = 4
    n = k * k
    assert predicted_calls(n, k) == 8 * n * n * (k * k + 1)


def test_predicted_words_base_and_one_level():
    # No level: the base mask of n+1 = 5 bits in 3-bit words is 2 words,
    # plus 4 locals.
    assert predicted_words(4, 4) == 6
    # One level: 2*5 markers + 8 locals + 2*11 frame words = 40; base on
    # side 4 with 5-bit words: 1 + 4.
    assert predicted_words(16, 4) == 45
    # Three levels (81 -> 27 -> 9 -> 3) of 2*4 + 8 + 2*9 = 34; base on
    # side 3 with 7-bit words: 1 + 4.
    assert predicted_words(81, 3) == 107


def _levels_and_bottom(n, k):
    """The word bound without the entry check's term: every divided level's
    charge and frames, plus the larger of a straight walk and the base
    case."""
    words = 0
    b = n
    for p in decompose(n, k)[:-1]:
        words += level_charge(2 * (p.k + 1)) + Metrics.FRAME_WORDS * (2 * p.k + 3)
        b = p.b
    return words + max(Metrics.WALK_WORDS, base_charge(b, n))


def test_entry_check_term_of_the_word_bound():
    # Criterion 7's bounds at epsilon=1.0.
    assert [predicted_words(n, k) for n, k in ((16, 4), (64, 8), (256, 16))] == [
        45, 70, 118]
    # The entry check's mask never binds on the schedules the repository runs.
    moved = checked = 0
    for n in range(2, 2049):
        for k in {choose_k(n, 1.0), choose_k(n, 0.5), 2, 3, 4}:
            if k <= n:
                checked += 1
                moved += predicted_words(n, k) != _levels_and_bottom(n, k)
    assert (checked, moved) == (9804, 0)
    # Nor at epsilon=0.5, n=65536 (k=16; 65536 -> 4096 -> 256 -> 16): three
    # levels of 2*17 + 8 + 2*35 = 112 words and a base of 1 + 4 make 341,
    # while the depth-0 entry check on a side-4096 block holds 4097 bits in
    # 17-bit words plus 4 locals under no level.
    assert choose_k(65536, 0.5) == 16
    assert base_charge(4096, 65536) == 245
    assert predicted_words(65536, 16) == _levels_and_bottom(65536, 16) == 341
    # It binds at n=2^18 (k=23; 262144 -> 11398 -> 496 -> 22): three levels
    # of 2*24 + 8 + 2*49 = 154 words and a base of 2 + 4 make 468, while the
    # depth-0 entry check holds 11399 bits in 19-bit words, 600, plus 4.
    n = 1 << 18
    assert choose_k(n, 0.5) == 23
    assert decompose(n, 23)[0].b == 11398
    assert _levels_and_bottom(n, 23) == 468
    assert predicted_words(n, 23) == base_charge(11398, n) == 604


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


def test_measured_within_derived_bounds_on_reference():
    g = gen_family("full", 16)
    m = reach(g, (0, 0), (16, 16), EngineConfig(epsilon=1.0)).metrics
    assert m.recursive_calls <= predicted_calls(16, 4)
    assert m.peak_tracked_words <= predicted_words(16, 4)
    assert check_bounds(m, Bounds(), 16, 4)["passed"]


def test_measured_within_bounds_fixed_k_ladder():
    # powers of one fixed divisor, per-level structure identical
    g = gen_family("full", 81)
    m = reach(g, (0, 0), (81, 81), EngineConfig(k=3)).metrics
    assert m.recursive_calls <= predicted_calls(81, 3)
    assert m.peak_tracked_words <= predicted_words(81, 3)
    assert check_bounds(m, Bounds(), 81, 3)["passed"]


def test_random_instances_within_derived_bounds():
    rng = SplitMix64(7)
    for trial in range(25):
        g = gen_random(16, 0.5, 0.5, rng.next_u64())
        m = reach(g, (0, 0), (16, 16), EngineConfig(epsilon=1.0)).metrics
        report = check_bounds(m, Bounds(), 16, m.k_top)
        assert report["calls"]["passed"]
        assert report["words"]["passed"]


# Sides per fixed k, capped by cost alone: a dense query takes up to 50 s
# at k=2, n=32 and up to 5 s at k=3, n=48.
_FIXED_K_SIDES = {2: (16,), 3: (16, 24, 32), 5: (16, 32, 64), 8: (16, 32, 64)}


@pytest.mark.parametrize("k", sorted(_FIXED_K_SIDES))
def test_random_queries_within_word_bound_fixed_k(k):
    """Seeded south-west -> north-east queries on random graphs stay within
    the derived word bound under a fixed divisor."""
    over = []
    for n in _FIXED_K_SIDES[k]:
        h = n // 2
        for p in (0.3, 0.5, 0.7):
            rng = SplitMix64(1000 * n + 10 * k + int(10 * p))
            for _ in range(5):
                g = gen_random(n, p, p, rng.next_u64())
                s = (rng.next_below(h + 1), rng.next_below(h + 1))
                t = (h + rng.next_below(n - h + 1), h + rng.next_below(n - h + 1))
                m = reach(g, s, t, EngineConfig(k=k)).metrics
                if m.peak_tracked_words > predicted_words(n, k):
                    over.append((n, p, s, t, m.peak_tracked_words))
    assert over == []


def test_tracked_accounting_returns_to_zero():
    g = gen_random(16, 0.5, 0.5, 99)
    a = reach(g, (1, 1), (15, 14), EngineConfig(epsilon=0.5))
    m = a.metrics
    assert m.cur_tracked_words == 0
    assert m.peak_tracked_words > 0
    assert m.pops <= m.pushes


def test_hold_is_a_charge_and_a_release_in_one():
    m = Metrics()
    m.charge(5)
    m.hold(3)
    assert (m.cur_tracked_words, m.peak_tracked_words) == (5, 8)
    m.release(5)
    m.hold(4)  # below the peak: no change
    assert (m.cur_tracked_words, m.peak_tracked_words) == (0, 8)
    m.hold(9)
    assert (m.cur_tracked_words, m.peak_tracked_words) == (0, 9)


def test_counters_populated():
    g = gen_random(16, 0.6, 0.6, 5)
    # The entry check passes this query, so the DFS runs at three depths.
    a = reach(g, (0, 1), (16, 15), EngineConfig(epsilon=0.5))
    m = a.metrics
    assert len(m.peak_stack_by_depth) == 3 and m.pushes > 0
    assert m.recursive_calls == sum(m.recursive_calls_by_depth)
    assert m.peak_stack == max(m.peak_stack_by_depth)
    assert m.edge_queries >= 0 and m.base_case_calls >= 0
    d = check_bounds(m, Bounds(), 16, m.k_top)
    assert set(d) == {"calls", "words", "passed"}
    assert set(d["calls"]) == {"measured", "predicted", "ratio", "passed"}
