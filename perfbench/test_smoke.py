"""Smoke test of the benchmark harness on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from hostspeed import REF_NS, HostSpeed
from spans import Tracer
from workloads import WORKLOADS, fingerprint, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, n=16 if w.n > 32 else 8, graphs=min(w.graphs, 2),
                               pairs_per_graph=6)


def names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_metric(name, trace, kind):
    result, info = run.run(tiny(name), seed=3, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0 and info["failed_frac"] == 0
    assert result["attempted"] >= tiny(name).queries
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == names(kind)
    if trace:
        # Self times never exceed the traced wall time; on these microsecond
        # queries the root span's own bookkeeping is the rest.
        assert 0.8 <= result["metrics"]["trace.accounted_frac"]["value"] <= 1.0


def test_wrong_verdict_counts_as_failed(capsys):
    calls = []

    def flip_first(g, s, t, cfg):
        from gridreach import reach

        ans = reach(g, s, t, cfg)
        if not calls:
            ans.reachable = not ans.reachable
        calls.append(1)
        return ans

    result, info = run.run(tiny("dense-cross"), seed=3, seconds=0.01, trace=0,
                           reach=flip_first)
    assert not result["correct"]
    assert result["failed"] == 1 and info["failed_frac"] > 0
    assert "FAILED workload=dense-cross seed=3 graph=0" in capsys.readouterr().err


def test_times_are_scaled_to_the_reference_host():
    speed = HostSpeed()
    speed.ref_ns = 2 * REF_NS  # the host runs the reference at half speed
    assert speed.scale(1000) == 500
    assert speed.scale(1000, REF_NS / 2) == 2000
    assert speed.sample() > 0 and speed.samples == [speed.ref_ns]


def test_tracer_restores_the_library():
    gr = run.load_gridreach()
    before = (gr.engine.marker_dfs, gr.engine.base_dfs, gr.engine.iter_candidates,
              gr.SubgridView.north_row, gr.SubgridView.east_row, gr.Metrics.charge)
    with Tracer(gr, gr.reach):
        assert gr.engine.marker_dfs is not before[0]
    after = (gr.engine.marker_dfs, gr.engine.base_dfs, gr.engine.iter_candidates,
             gr.SubgridView.north_row, gr.SubgridView.east_row, gr.Metrics.charge)
    assert after == before


def test_inputs_follow_the_seed():
    gr = run.load_gridreach()
    w = tiny("sparse-screen")
    a = fingerprint(*make_inputs(gr, w, 5)[:2])
    assert a == fingerprint(*make_inputs(gr, w, 5)[:2])
    assert a != fingerprint(*make_inputs(gr, w, 6)[:2])


def test_cli_last_line_is_the_result(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "full-reach", tiny("full-reach"))
    assert run.main(["--workload", "full-reach", "--seed", "2", "--seconds", "0.01",
                     "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "full-reach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
