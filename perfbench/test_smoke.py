"""Smoke tests of the benchmark at tiny scale.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def report(workload: str, seed: int, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    out = report(workload, seed=2, trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    return {w: report(w, seed=1, trace=1) for w in WORKLOADS}


def test_traced_reports_every_layer_metric(traced):
    for out in traced.values():
        assert out["correct"] and out["failed"] == 0
        assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        assert all(m["value"] is not None for m in out["metrics"].values())


def test_traced_call_counts_repeat(traced):
    again = report("sweep", seed=1, trace=1)["metrics"]
    first = traced["sweep"]["metrics"]
    calls = [k for k in first if k.endswith(".calls")]
    assert [first[k]["value"] for k in calls] == [again[k]["value"] for k in calls]


def test_layer_predictions(traced):
    def value(workload, metric):
        return traced[workload]["metrics"][metric]["value"]

    for metric in ("graph.induced_subgraph.calls", "symdiff.sd_pair.calls"):
        assert value("sweep", metric) > 0
        assert value("vertex-search", metric) == 0
        assert value("witness-replay", metric) == 0
    for metric in ("functionality.fun_vertex.self_s", "functionality.min_fun.self_s"):
        assert value("witness-replay", metric) == 0
        assert value("vertex-search", metric) > 0
    assert value("witness-replay", "families.line_graph.calls") > 0
    assert value("sweep", "families.line_graph.calls") == 0
    assert value("vertex-search", "families.line_graph.calls") == 0


def test_seeds_reorder_the_whole_pool(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    expected = workloads.load_expected(str(HERE / "expected.json"))
    for w in workloads.WORKLOADS.values():
        orders = []
        for seed in (1, 2):
            d = tmp_path / f"{w.name}-{seed}"
            d.mkdir()
            cycles = workloads.build_cycles(w, seed, str(d), expected)
            assert all(inst.expected is not None for c in cycles for inst in c)
            orders.append([inst.key for c in cycles for inst in c])
        inputs = {key.partition(":")[0] for key in orders[0]}
        assert inputs == {workloads.input_id(cls, i) for cls in w.classes
                          for i in workloads.pool_indices(w, cls)}
        assert sorted(orders[0]) == sorted(orders[1]) and orders[0] != orders[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
