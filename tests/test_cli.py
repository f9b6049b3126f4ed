"""End-to-end command-line behavior and exit codes."""

import json
import logging
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from equiprune import (load_model, load_schema, make_synthetic,
                       predict_classes_batch, save_dataset, save_model,
                       save_schema)
from equiprune.cli import main
from conftest import DATA_DIR, make_stump, opposed_stumps
from test_model_io import MALFORMED, malformed
from test_trainer import MALFORMED_SCHEMAS, malformed_schema


XOR_SCHEMA = str(DATA_DIR / "xor_schema.json")
XOR_CSV = str(DATA_DIR / "xor.csv")
SEP_SCHEMA = str(DATA_DIR / "separable_schema.json")
SEP_CSV = str(DATA_DIR / "separable.csv")
FIXTURE = str(DATA_DIR / "three_stumps.json")
FIXTURE_CSV = str(DATA_DIR / "three_stumps_points.csv")
MIXED = str(DATA_DIR / "mixed_model.json")
MIXED_CSV = str(DATA_DIR / "mixed_points.csv")


def run(*argv):
    return main(list(argv))


def test_train_adaboost_on_xor(tmp_path, capsys):
    # depth-1 stumps cannot learn xor (every stage weight would be 0);
    # depth 2 suffices
    out = tmp_path / "m.json"
    assert run("train", "--data", XOR_CSV, "--schema", XOR_SCHEMA,
               "--model", "ab", "--n-estimators", "10", "--max-depth", "2",
               "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "training accuracy 1.0000" in printed
    ens = load_model(out)
    assert ens.num_trees == 10


def test_train_stumps_on_xor_is_unlearnable(tmp_path, capsys):
    assert run("train", "--data", XOR_CSV, "--schema", XOR_SCHEMA,
               "--model", "ab", "--n-estimators", "10",
               "--out", str(tmp_path / "m.json")) == 4
    assert "no informative tree" in capsys.readouterr().err


def test_train_forest_has_unit_weights(tmp_path):
    out = tmp_path / "rf.json"
    assert run("train", "--data", SEP_CSV, "--schema", SEP_SCHEMA,
               "--model", "rf", "--n-estimators", "5",
               "--out", str(out)) == 0
    assert load_model(out).alpha == (1.0,) * 5


def test_train_is_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run("train", "--data", SEP_CSV, "--schema", SEP_SCHEMA,
            "--model", "ab", "--n-estimators", "6", "--seed", "3",
            "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def only_first_lps_cold(rounds):
    """Whether each round of the ``l0`` run of ``prune_rounds`` solved
    cold only its weight-sum LP and its first solved check, if it solved
    one.  Each round solves one weight-sum LP, so the LPs beyond it are
    checks."""
    return all(r["lps"] - r["warm_lps"] == 1 + (r["lps"] > 1)
               for r in rounds)


def test_prune_fixture_writes_report(tmp_path, capsys):
    out = tmp_path / "pruned.json"
    report_path = tmp_path / "report.json"
    assert run("prune", "--model", FIXTURE, "--data", FIXTURE_CSV,
               "--norm", "l0", "--out", str(out),
               "--report", str(report_path)) == 0
    assert "kept 1 of 3" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert set(report) == {"format_version", "m_original", "m_pruned",
                           "weights", "iterations", "n_oracle",
                           "fidelity_test", "accuracy_test", "wall_time",
                           "oracle_pairs", "screened_iterations",
                           "prune_rounds"}
    assert report["m_original"] == 3
    assert report["m_pruned"] == 1
    assert report["fidelity_test"] == 1.0
    assert set(report["wall_time"]) == {"prune", "oracle", "total"}
    pairs = report["oracle_pairs"]
    assert len(pairs) + sum(p["cuts"] for p in pairs) == report["n_oracle"]
    # the pairs cover exactly the rounds the screen did not settle
    assert {p["iteration"] for p in pairs} == set(
        range(1, report["iterations"] + 1)) - set(
        report["screened_iterations"])
    for p in pairs:
        assert set(p) == {"iteration", "challenger", "original", "status",
                          "objective", "nodes", "pivots", "rows", "cols",
                          "cuts"}
        # a pair that no cell lifts to its floor has no optimum
        assert p["status"] in ("optimal", "infeasible")
        assert (p["objective"] is None) == (p["status"] == "infeasible")
    # the certifying round files no cell: each pair is empty, or met
    # its floor only within the solver's tolerances
    assert all(p["objective"] is None or p["objective"] < -1e-8
               for p in pairs if p["iteration"] == report["iterations"])
    rounds = report["prune_rounds"]
    assert [r["iteration"] for r in rounds] == list(
        range(1, report["iterations"] + 1))
    for r in rounds:
        assert set(r) == {"iteration", "nodes", "pivots", "masters",
                          "free_masters", "lps", "warm_lps", "free_checks"}
    assert only_first_lps_cold(rounds)
    pruned = load_model(out)
    assert sum(1 for w in pruned.alpha if w > 0) == 1


def test_prune_reports_screened_rounds(tmp_path, capsys, caplog):
    # a 40-tree forest seeded with four rows takes several rounds, and the
    # screen settles all but the last
    data = make_synthetic("blobs", n=24, seed=7)
    save_schema(data.schema, tmp_path / "schema.json")
    save_dataset(data, tmp_path / "blobs.csv")
    lines = (tmp_path / "blobs.csv").read_text().splitlines()
    (tmp_path / "seeds.csv").write_text("\n".join(lines[:5]) + "\n")
    model, out = str(tmp_path / "model.json"), str(tmp_path / "pruned.json")
    report_path = tmp_path / "report.json"
    assert run("train", "--data", str(tmp_path / "blobs.csv"), "--schema",
               str(tmp_path / "schema.json"), "--model", "rf",
               "--n-estimators", "40", "--out", model) == 0
    caplog.set_level(logging.INFO, logger="equiprune.driver")
    assert run("prune", "--model", model, "--data",
               str(tmp_path / "seeds.csv"), "--norm", "l0", "--out", out,
               "--report", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    screened = report["screened_iterations"]
    assert screened and report["iterations"] not in screened
    assert {p["iteration"] for p in report["oracle_pairs"]}.isdisjoint(
        screened)
    assert sum(r["free_masters"] for r in report["prune_rounds"]) >= 1
    assert only_first_lps_cold(report["prune_rounds"])
    assert sum(r["free_checks"] for r in report["prune_rounds"]) >= 1
    assert "screened cells" in capsys.readouterr().out
    assert any("screened" in r.getMessage() for r in caplog.records)
    assert run("verify", "--model", model, "--pruned", out) == 0


def test_prune_l1_keeps_at_least_as_many(tmp_path):
    sizes = {}
    for norm in ("l1", "l0"):
        out = tmp_path / f"{norm}.json"
        report = tmp_path / f"{norm}_report.json"
        assert run("prune", "--model", FIXTURE, "--data", FIXTURE_CSV,
                   "--norm", norm, "--out", str(out),
                   "--report", str(report)) == 0
        sizes[norm] = json.loads(report.read_text())["m_pruned"]
    assert sizes["l1"] >= sizes["l0"]


def test_prune_single_tree_model(tmp_path):
    model = tmp_path / "one.json"
    from equiprune import build_ensemble
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x0", "kind": "continuous"}],
                         weights=[1.0],
                         raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))])
    save_model(ens, model)
    data = tmp_path / "pts.csv"
    data.write_text("x0,label\n0.2,0\n0.8,1\n")
    report = tmp_path / "report.json"
    assert run("prune", "--model", str(model), "--data", str(data),
               "--out", str(tmp_path / "out.json"),
               "--report", str(report)) == 0
    assert json.loads(report.read_text())["m_pruned"] == 1


def leaf_model(margins, weights):
    """Two classes, one continuous feature and a leaf-only tree per
    margin g, with scores ((1 + g) / 2, (1 - g) / 2)."""
    from equiprune import build_ensemble
    trees = [{"root": 0, "nodes": [{"id": 0, "kind": "leaf",
                                    "scores": [(1 + g) / 2, (1 - g) / 2]}]}
             for g in margins]
    return build_ensemble(num_classes=2,
                          features=[{"name": "x", "kind": "continuous"}],
                          weights=weights, raw_trees=trees)


@pytest.mark.parametrize("norm", ["l0", "l1"])
def test_tiny_score_differences_prune_and_verify(tmp_path, capsys, norm):
    # keep-row entries just above the solver's pivot tolerance: the
    # pruner's LPs must still find the faithful weights these models
    # have, and the oracle must certify them
    three = tmp_path / "three.json"
    save_model(leaf_model([-3.096e-9, -0.1011, 1.411e-9], [1.0, 1.0, 1e9]),
               three)
    for model in (DATA_DIR / "one_leaf_model.json", three):
        out = tmp_path / f"{model.stem}_{norm}.json"
        assert run("prune", "--model", str(model), "--data",
                   str(DATA_DIR / "one_leaf_points.csv"), "--norm", norm,
                   "--out", str(out)) == 0
        assert "kept 1 of" in capsys.readouterr().out
        assert run("verify", "--model", str(model), "--pruned",
                   str(out)) == 0
        capsys.readouterr()


def test_verify_model_against_itself(capsys):
    assert run("verify", "--model", FIXTURE, "--pruned", FIXTURE) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identical"] is True
    assert doc["disagreement_cells"] == []
    assert doc["oracle_points"] == []


def test_prune_then_verify_exits_zero(tmp_path, capsys):
    out = tmp_path / "pruned.json"
    assert run("prune", "--model", FIXTURE, "--data", FIXTURE_CSV,
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--model", FIXTURE, "--pruned", str(out)) == 0


def broken_pruning(tmp_path):
    # drop the necessary middle tree
    broken = replace(load_model(FIXTURE), alpha=(1.0, 0.0, 1.0))
    path = tmp_path / "broken.json"
    save_model(broken, path)
    return str(path)


def assert_points_disagree(original, pruned, points):
    """Every oracle point is one where the two weightings predict
    different classes."""
    original, pruned = load_model(original), load_model(pruned)
    assert points
    assert np.all(predict_classes_batch(original, pruned.alpha, points)
                  != predict_classes_batch(original, original.alpha, points))


def test_verify_flags_a_broken_pruning(tmp_path, capsys):
    path = broken_pruning(tmp_path)
    assert run("verify", "--model", FIXTURE, "--pruned", path) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["identical"] is False
    assert doc["disagreement_cells"] or doc["sub_epsilon_cells"]
    assert_points_disagree(FIXTURE, path, doc["oracle_points"])


def test_verify_reports_a_tie_cell_the_tie_break_flips(tmp_path, capsys):
    # under (1, 1) the opposed stumps tie on both cells; the tie-break
    # picks class 0, which flips the cell the original gives class 1
    original, pruned = tmp_path / "original.json", tmp_path / "pruned.json"
    save_model(opposed_stumps(2.0), original)
    save_model(replace(opposed_stumps(2.0), alpha=(1.0, 1.0)), pruned)
    assert run("verify", "--model", str(original), "--pruned",
               str(pruned)) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_points"] == [[1.5]]
    assert_points_disagree(original, pruned, doc["oracle_points"])


def test_verify_above_cell_cap_oracle_flags_a_broken_pruning(tmp_path,
                                                             capsys):
    path = broken_pruning(tmp_path)
    assert run("verify", "--model", FIXTURE, "--pruned", path,
               "--max-cells", "1") == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == ["oracle"]
    assert_points_disagree(FIXTURE, path, doc["oracle_points"])


def test_verify_above_cell_cap_reports_oracle_and_exits_four(capsys):
    assert run("verify", "--model", FIXTURE, "--pruned", FIXTURE,
               "--max-cells", "1") == 4
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["checks"] == ["oracle"]
    assert doc["oracle_points"] == []
    assert "identical" not in doc
    assert "cap" in captured.err


def test_verify_rejects_different_trees(tmp_path, capsys):
    other = tmp_path / "other.json"
    from equiprune import build_ensemble
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x0", "kind": "continuous"}],
                         weights=[1.0],
                         raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))])
    save_model(ens, other)
    assert run("verify", "--model", FIXTURE, "--pruned", str(other)) == 4


def test_predict_round_trip(tmp_path):
    out = tmp_path / "pred.csv"
    assert run("predict", "--model", FIXTURE, "--data", FIXTURE_CSV,
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prediction"
    ens = load_model(FIXTURE)
    rows = [(0.0,), (0.4,), (0.6,), (1.0,)]
    expected = predict_classes_batch(ens, ens.alpha, rows).tolist()
    assert [int(v) for v in lines[1:]] == expected


def test_predict_cross_checks_library(tmp_path):
    data = tmp_path / "pts.csv"
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, size=10)
    data.write_text("x0,label\n" +
                    "".join(f"{x:.6f},0\n" for x in xs))
    out = tmp_path / "pred.csv"
    assert run("predict", "--model", FIXTURE, "--data", str(data),
               "--out", str(out)) == 0
    ens = load_model(FIXTURE)
    expected = predict_classes_batch(ens, ens.alpha, xs[:, None]).tolist()
    got = [int(v) for v in out.read_text().splitlines()[1:]]
    assert got == expected


def test_predict_empty_data_is_input_error(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("")
    assert run("predict", "--model", FIXTURE, "--data", str(data),
               "--out", str(tmp_path / "pred.csv")) == 4
    assert "error" in capsys.readouterr().err


def test_tied_model_prune_is_infeasible_exit(tmp_path, capsys):
    # two opposite stumps tie the vote everywhere: no margin to preserve
    from equiprune import build_ensemble
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x0", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    model = tmp_path / "tied.json"
    save_model(ens, model)
    data = tmp_path / "pts.csv"
    data.write_text("x0,label\n0.2,0\n0.8,1\n")
    assert run("prune", "--model", str(model), "--data", str(data),
               "--out", str(tmp_path / "out.json")) == 2
    assert "tied" in capsys.readouterr().err


def test_missing_model_file_is_input_error(tmp_path, capsys):
    # ModelFormatError derives from InputError, so exit code 4
    assert run("predict", "--model", str(tmp_path / "absent.json"),
               "--data", FIXTURE_CSV,
               "--out", str(tmp_path / "pred.csv")) == 4
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("model, path, value, message", MALFORMED)
def test_malformed_model_file_is_input_error(tmp_path, capsys, model, path,
                                             value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malformed(model, path, value)))
    assert run("predict", "--model", str(bad), "--data", FIXTURE_CSV,
               "--out", str(tmp_path / "pred.csv")) == 4
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("path, value, message", MALFORMED_SCHEMAS)
def test_malformed_schema_file_is_input_error(tmp_path, capsys, path, value,
                                              message):
    schema = malformed_schema(tmp_path, path, value)
    assert run("train", "--data", str(DATA_DIR / "mixed_points.csv"),
               "--schema", str(schema), "--out",
               str(tmp_path / "model.json")) == 4
    assert re.search(message, capsys.readouterr().err)


def test_bad_arguments_exit_four():
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--model"])  # missing value
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 4


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_exits_four(tmp_path, capsys, epsilon):
    assert run("prune", "--model", FIXTURE, "--data", FIXTURE_CSV,
               "--out", str(tmp_path / "pruned.json"),
               "--epsilon", epsilon) == 4
    assert "epsilon must be finite" in capsys.readouterr().err
    assert run("verify", "--model", FIXTURE, "--pruned", FIXTURE,
               "--epsilon", epsilon) == 4
    assert "epsilon must be finite" in capsys.readouterr().err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "equiprune.cli", "verify",
         "--model", FIXTURE, "--pruned", FIXTURE],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["identical"] is True


def test_mixed_fixture_prunes_and_verifies(tmp_path, capsys):
    # a continuous, a binary and a categorical feature: the oracle's
    # threshold, bit and level indicators all reach the console script
    out = tmp_path / "pruned.json"
    assert run("prune", "--model", MIXED, "--data", MIXED_CSV,
               "--norm", "l0", "--out", str(out)) == 0
    assert "kept 4 of 5" in capsys.readouterr().out
    assert run("verify", "--model", MIXED, "--pruned", str(out)) == 0
    schema = load_schema(DATA_DIR / "mixed_schema.json")
    assert schema.names == load_model(MIXED).schema.names
    assert [k.kind for k in schema.features] == [
        "continuous", "binary", "categorical"]
