import json

import pytest

from gridreach import parse_lgg
from gridreach.cli import main

QUERY_FIELDS = ["reachable", "n", "k_top", "pushes", "pops", "edge_queries",
                "peak_stack", "peak_tracked_words", "wall_ms"]


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
    a = tmp_path / "a.lgg"
    b = tmp_path / "b.lgg"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--family", "random", "--n", "16",
                         "--p-north", "0.5", "--p-east", "0.5", "--seed", "7",
                         "-o", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_unknown_family_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--family", "nosuch", "--n", "4",
                     "-o", str(tmp_path / "x.lgg"))
    assert code == 2


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


def _with_push_bound_violation(monkeypatch):
    """Make the CLI's engine report one push-bound breach per query."""
    import gridreach.cli as cli_mod

    real = cli_mod.reach

    def flagged(g, s, t, cfg):
        answer = real(g, s, t, cfg)
        answer.metrics.push_bound_violations += 1
        return answer

    monkeypatch.setattr(cli_mod, "reach", flagged)


def test_query_push_bound_violation_exits_1(full9, capsys, monkeypatch):
    _with_push_bound_violation(monkeypatch)
    code, out, err = run(capsys, "query", "--graph", full9, "--s", "0,0",
                         "--t", "9,9", "--epsilon", "1.0")
    assert code == 1
    assert out == "YES\n"
    assert "invariant violation" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_clean_build_passes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "--n-list", "8", "--trials", "10",
                       "--seed", "1", "--epsilon-list", "1.0")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_zero_trials(capsys):
    code, out, _ = run(capsys, "verify", "--n-list", "8,12", "--trials", "0",
                       "--seed", "1", "--epsilon-list", "1.0")
    assert code == 0
    assert "verified 0 comparisons" in out


def test_verify_persists_counterexample_on_mismatch(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # sabotage the engine so the harness sees a mismatch
    import gridreach.cli as cli_mod

    class FakeAnswer:
        def __init__(self, reachable):
            self.reachable = reachable

    real = cli_mod.reach
    monkeypatch.setattr(cli_mod, "reach",
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
                  cli_mod.EngineConfig(epsilon=sidecar["epsilon"]))
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


def test_bench_fixed_k_echo(capsys):
    code, out, _ = run(capsys, "bench", "--n-list", "16", "--epsilon", "1.0",
                       "--fixed-k", "4", "--family", "full")
    assert code == 0
    assert json.loads(out.splitlines()[0])["k_top"] == 4


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
