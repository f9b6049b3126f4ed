"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from equiprune import model_to_dict  # noqa: E402


def bench_command(*args: str) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]


@pytest.fixture(scope="module")
def forest(tmp_path_factory):
    setup = workloads.set_up("forest3-l0", 0, tmp_path_factory.mktemp("m"))
    bench = run.Bench(setup.instances)
    _, results = bench.run_pass()
    return bench, results


def test_gate_passes_seed_code(forest):
    bench, results = forest
    assert bench.failures(results) == []


def test_zeroed_kept_tree_is_caught_and_counted(forest):
    bench, results = forest
    outcome = results[0]
    weights = outcome.weights.copy()
    weights[outcome.support[0]] = 0.0
    corrupted = [dataclasses.replace(outcome, weights=weights)]
    reasons = bench.failures(corrupted)
    assert len(reasons) == 1
    assert "disagreement cells" in reasons[0]


def test_raised_error_counts_as_failed(forest):
    bench, _ = forest
    assert bench.failures(["SolverFailureError"]) == [
        "instance 0: raised SolverFailureError"]


def test_seed_scales_inputs_and_keeps_the_problem(tmp_path):
    a = workloads.set_up("stumps-l1", 3, tmp_path).instances[0]
    b = workloads.set_up("stumps-l1", 3, tmp_path).instances[0]
    c = workloads.set_up("stumps-l1", 4, tmp_path).instances[0]
    assert model_to_dict(a.ensemble) == model_to_dict(b.ensemble)
    assert a.points == b.points
    doc_a, doc_c = model_to_dict(a.ensemble), model_to_dict(c.ensemble)
    assert a.points != c.points
    assert doc_a["weights"] == doc_c["weights"]
    assert ([len(f.thresholds) for f in a.ensemble.schema.features]
            == [len(f.thresholds) for f in c.ensemble.schema.features])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        bench_command("--workload", "forest3-l0", "--seed", "2",
                      "--seconds", "1", "--trace", trace),
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stumps-l1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
