import hashlib
import json

import pytest

from gridreach import SubgridView, gen_random, oracle_reach, parse_lgg
from gridreach.cli import main

QUERY_FIELDS = ["reachable", "n", "k_top", "pushes", "pops", "edge_queries",
                "peak_stack", "peak_tracked_words", "recursive_calls_by_depth",
                "base_case_calls", "peak_stack_by_depth",
                "stack_bound_violations", "visit_once_violations",
                "push_bound_violations", "wall_ms"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gen

def test_gen_full_writes_file_and_reports_edges(tmp_path, capsys):
    path = tmp_path / "g.lgg"
    code, out, _ = run(capsys, "gen", "--family", "full", "--n", "9", "-o", str(path))
    assert code == 0
    assert str(path) in out and "180 edges" in out
    assert parse_lgg(path.read_text()).edge_count == 180


def test_gen_random_is_deterministic(tmp_path, capsys):
    path = tmp_path / "a.lgg"
    code, _, _ = run(capsys, "gen", "--family", "random", "--n", "16",
                     "--p-north", "0.5", "--p-east", "0.5", "--seed", "7",
                     "-o", str(path))
    assert code == 0
    # The pinned digest of gen_random(16, 0.5, 0.5, 7) in test_grid.py.
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "e50f76152491daac"


def test_gen_unknown_family_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--family", "nosuch", "--n", "4",
                     "-o", str(tmp_path / "x.lgg"))
    assert code == 2


def test_gen_into_a_missing_directory_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "--family", "full", "--n", "4",
                         "-o", str(tmp_path / "nosuch" / "x.lgg"))
    assert code == 1
    assert out == "" and err.startswith("error: ")


# ---------------------------------------------------------------------------
# query

@pytest.fixture
def full9(tmp_path, capsys):
    path = tmp_path / "full9.lgg"
    run(capsys, "gen", "--family", "full", "--n", "9", "-o", str(path))
    return str(path)


@pytest.fixture
def empty9(tmp_path, capsys):
    path = tmp_path / "empty9.lgg"
    run(capsys, "gen", "--family", "empty", "--n", "9", "-o", str(path))
    return str(path)


def test_query_yes_and_no(full9, empty9, capsys):
    code, out, _ = run(capsys, "query", "--graph", full9, "--s", "0,0",
                       "--t", "9,9", "--epsilon", "1.0")
    assert code == 0 and out == "YES\n"
    code, out, _ = run(capsys, "query", "--graph", empty9, "--s", "0,0",
                       "--t", "9,9", "--epsilon", "1.0")
    assert code == 0 and out == "NO\n"


def test_query_self_is_yes(empty9, capsys):
    code, out, _ = run(capsys, "query", "--graph", empty9, "--s", "5,5",
                       "--t", "5,5", "--epsilon", "1.0")
    assert code == 0 and out == "YES\n"


def test_query_metrics_json_fields(full9, capsys):
    code, out, _ = run(capsys, "query", "--graph", full9, "--s", "0,0",
                       "--t", "9,9", "--epsilon", "1.0", "--metrics")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    fields = json.loads(lines[1])
    assert list(fields) == QUERY_FIELDS
    assert fields["reachable"] is True
    assert fields["n"] == 9 and fields["k_top"] == 3


def test_query_usage_errors(full9, capsys):
    # neither epsilon nor k
    code, _, err = run(capsys, "query", "--graph", full9, "--s", "0,0", "--t", "9,9")
    assert code == 2
    # both
    code, _, _ = run(capsys, "query", "--graph", full9, "--s", "0,0",
                     "--t", "9,9", "--epsilon", "1.0", "--k", "3")
    assert code == 2
    # out of range vertex
    code, _, _ = run(capsys, "query", "--graph", full9, "--s", "0,0",
                     "--t", "10,10", "--epsilon", "1.0")
    assert code == 2
    # malformed vertex
    code, _, _ = run(capsys, "query", "--graph", full9, "--s", "0", "--t", "9,9",
                     "--epsilon", "1.0")
    assert code == 2
    # non-integer vertex
    code, _, err = run(capsys, "query", "--graph", full9, "--s", "a,0", "--t", "9,9",
                       "--epsilon", "1.0")
    assert code == 2 and "expected integers" in err
    # missing file
    code, _, _ = run(capsys, "query", "--graph", "/nonexistent.lgg", "--s", "0,0",
                     "--t", "9,9", "--epsilon", "1.0")
    assert code == 2


def test_query_with_k(full9, capsys):
    code, out, _ = run(capsys, "query", "--graph", full9, "--s", "0,0",
                       "--t", "9,9", "--k", "3")
    assert code == 0 and out == "YES\n"


def test_query_determinism_modulo_wall_ms(full9, capsys):
    outputs = set()
    for _ in range(5):
        code, out, _ = run(capsys, "query", "--graph", full9, "--s", "1,0",
                           "--t", "8,9", "--epsilon", "0.5", "--metrics")
        assert code == 0
        lines = out.splitlines()
        fields = json.loads(lines[1])
        fields.pop("wall_ms")
        outputs.add((lines[0], json.dumps(fields, sort_keys=True)))
    assert len(outputs) == 1


# Patch the globals main runs with, not gridreach.cli: a test that
# re-imports gridreach (the benchmark's loader does) leaves that name on a
# new module that main never reads.
CLI = main.__globals__


def _with_push_bound_violation(monkeypatch):
    """Make the CLI's engine report one push-bound breach per query."""
    real = CLI["reach"]

    def flagged(g, s, t, cfg):
        answer = real(g, s, t, cfg)
        answer.metrics.push_bound_violations += 1
        return answer

    monkeypatch.setitem(CLI, "reach", flagged)


def test_query_push_bound_violation_exits_1(full9, capsys, monkeypatch):
    _with_push_bound_violation(monkeypatch)
    code, out, err = run(capsys, "query", "--graph", full9, "--s", "0,0",
                         "--t", "9,9", "--epsilon", "1.0")
    assert code == 1
    assert out == "YES\n"
    assert "invariant violation" in err
    assert "0 stack bound, 0 visit-once, 1 push bound" in err


def test_query_metrics_print_the_invariant_counters(full9, capsys, monkeypatch):
    _with_push_bound_violation(monkeypatch)
    code, out, _ = run(capsys, "query", "--graph", full9, "--s", "0,0",
                       "--t", "9,9", "--epsilon", "1.0", "--metrics")
    assert code == 1
    fields = json.loads(out.splitlines()[1])
    assert (fields["stack_bound_violations"], fields["visit_once_violations"],
            fields["push_bound_violations"]) == (0, 0, 1)
    assert fields["peak_stack_by_depth"][0] >= 1


# ---------------------------------------------------------------------------
# verify

def test_verify_clean_build_passes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "--n-list", "8", "--trials", "10",
                       "--seed", "1", "--epsilon-list", "1.0")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_cycles_families_and_quadrant_pairs(capsys, monkeypatch):
    """verify compares every family, and every other trial is a
    south-west to north-east quadrant pair."""
    real_family = CLI["gen_family"]
    real_reach = CLI["reach"]
    families = []
    pairs = []

    def family(name, n):
        families.append(name)
        return real_family(name, n)

    def spy(g, s, t, cfg):
        pairs.append((s, t))
        return real_reach(g, s, t, cfg)

    monkeypatch.setitem(CLI, "gen_family", family)
    monkeypatch.setitem(CLI, "reach", spy)
    code, out, _ = run(capsys, "verify", "--n-list", "8", "--trials", "10",
                       "--seed", "5", "--epsilon-list", "1.0")
    assert code == 0
    assert "verified 10 comparisons, 0 mismatches" in out
    assert families == ["full", "empty", "staircase", "single_path"] * 2
    for s, t in pairs[1::2]:
        assert max(s) < 4 and min(t) > 4, (s, t)


def test_verify_persists_counterexample_on_mismatch(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # sabotage the engine so the harness sees a mismatch
    class FakeAnswer:
        def __init__(self, reachable):
            self.reachable = reachable

    real = CLI["reach"]
    monkeypatch.setitem(CLI, "reach",
                        lambda g, s, t, cfg: FakeAnswer(not real(g, s, t, cfg).reachable))
    code, out, _ = run(capsys, "verify", "--n-list", "8", "--trials", "4",
                       "--seed", "3", "--epsilon-list", "1.0")
    assert code == 1
    assert "MISMATCH" in out
    assert (tmp_path / "counterexample.lgg").exists()
    sidecar = json.loads((tmp_path / "counterexample.json").read_text())
    assert {"graph", "s", "t", "epsilon", "expected", "got"} <= set(sidecar)
    # the sidecar replays against the real engine
    g = parse_lgg((tmp_path / "counterexample.lgg").read_text())
    answer = real(g, tuple(sidecar["s"]), tuple(sidecar["t"]),
                  CLI["EngineConfig"](epsilon=sidecar["epsilon"]))
    assert answer.reachable == sidecar["expected"]


def test_verify_fails_on_invariant_counters(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _with_push_bound_violation(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n-list", "8", "--trials", "3",
                       "--seed", "1", "--epsilon-list", "1.0")
    assert code == 1
    assert "0 mismatches" in out
    assert "INVARIANT 3 " in out


def test_verify_epsilon_out_of_range(capsys):
    code, _, _ = run(capsys, "verify", "--n-list", "8", "--trials", "1",
                     "--seed", "1", "--epsilon-list", "0.0")
    assert code == 2


def test_verify_negative_trials_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--n-list", "8", "--trials", "-1",
                         "--seed", "1", "--epsilon-list", "1.0")
    assert code == 2
    assert out == "" and "--trials" in err


def test_verify_zero_trials(capsys):
    # A verification that checks nothing is a usage error, not a pass.
    code, out, err = run(capsys, "verify", "--n-list", "8,12", "--trials", "0",
                         "--seed", "1", "--epsilon-list", "1.0")
    assert code == 2
    assert out == "" and "--trials" in err


@pytest.mark.parametrize("flag, value, words", [
    ("--n-list", "8,x", "integers"), ("--epsilon-list", "1.0,y", "floats"),
    ("--n-list", "", "integers"), ("--epsilon-list", "", "floats"),
    ("--n-list", ",", "integers")])
def test_verify_malformed_lists_exit_2(capsys, flag, value, words):
    # an empty list would check nothing and pass
    args = {"--n-list": "8", "--trials": "1", "--seed": "1", "--epsilon-list": "1.0"}
    args[flag] = value
    code, out, err = run(capsys, "verify", *[a for kv in args.items() for a in kv])
    assert code == 2
    assert out == "" and f"expected comma-separated {words}" in err


# ---------------------------------------------------------------------------
# bench

def test_bench_emits_one_json_line_per_n(capsys):
    code, out, _ = run(capsys, "bench", "--n-list", "16,32", "--epsilon", "1.0",
                       "--family", "full")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for line, n in zip(lines, (16, 32)):
        fields = json.loads(line)
        assert fields["n"] == n
        assert fields["reachable"] is True
        assert fields["bounds_pass"] is True
        for name in QUERY_FIELDS + ["predicted_calls", "predicted_words",
                                    "recursive_calls", "bounds_pass"]:
            assert name in fields


def test_bench_empty_n_list_exits_2(capsys):
    code, out, err = run(capsys, "bench", "--n-list", ",", "--epsilon", "1.0")
    assert code == 2
    assert out == "" and "expected comma-separated integers" in err


def test_bench_fixed_k_echo(capsys):
    code, out, _ = run(capsys, "bench", "--n-list", "16", "--k", "4",
                       "--family", "full")
    assert code == 0
    assert json.loads(out.splitlines()[0])["k_top"] == 4


@pytest.mark.parametrize("divisors", [(), ("--epsilon", "1.0", "--k", "4")])
def test_bench_takes_exactly_one_divisor(capsys, divisors):
    code, out, err = run(capsys, "bench", "--n-list", "16", *divisors)
    assert code == 2
    assert out == "" and "exactly one of epsilon and k" in err


def test_bench_random_family(capsys):
    """bench draws its random graph with p = 0.5 and seed 1 and asks
    (0, 0) -> (n, n)."""
    code, out, _ = run(capsys, "bench", "--n-list", "16", "--epsilon", "1.0",
                       "--family", "random")
    assert code == 0
    fields = json.loads(out)
    g = gen_random(16, 0.5, 0.5, 1)
    assert fields["reachable"] == oracle_reach(SubgridView.whole(g), (0, 0), (16, 16))
    assert fields["bounds_pass"] is True


def test_bench_epsilon_zero_exits_2(capsys):
    code, _, _ = run(capsys, "bench", "--n-list", "16", "--epsilon", "0.0",
                     "--family", "full")
    assert code == 2


def test_bench_growth_ratios_words_below_calls(capsys):
    code, out, _ = run(capsys, "bench", "--n-list", "16,64,256",
                       "--epsilon", "1.0", "--family", "full")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    words_growth = rows[2]["peak_tracked_words"] / rows[0]["peak_tracked_words"]
    calls_growth = rows[2]["recursive_calls"] / rows[0]["recursive_calls"]
    assert words_growth < calls_growth
