"""The iterative prune/separate loop and its run metrics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.optimize import linprog

from equiprune import (DEFAULT_EPSILON, InfeasiblePruneError, InputError,
                       PruneOptions, PruneSet, SolveStatus,
                       TiedPredictionError, accuracy, brute_force_min_support,
                       build_ensemble, build_separation, certified_prune,
                       certify, enumerate_cells, fidelity, make_synthetic,
                       model_from_dict, predict_classes_batch,
                       sample_uniform_points, train_adaboost,
                       train_random_forest)
from equiprune.oracle import VIOLATION_TOL
from conftest import make_stump, random_stump_ensemble, stump_ensembles
from test_model_io import mixed_documents


def seed_points(ensemble, n=12, seed=0):
    return sample_uniform_points(ensemble.schema, n, seed)


def reweighted(ensemble, weights):
    return replace(ensemble, alpha=tuple(float(w) for w in weights))


def test_fixture_prunes_to_middle_stump(three_stumps):
    outcome = certified_prune(three_stumps, [(0.0,), (1.0,)],
                              PruneOptions(norm="l0"))
    assert outcome.support == (1,)
    assert outcome.num_kept == 1
    # the final round added nothing: that is what terminated the loop
    assert outcome.history[-1].added_cells == []
    report = certify(three_stumps, outcome.weights, epsilon=1e-6)
    assert report.identical


def test_fixture_prunes_under_l1_too(three_stumps):
    outcome = certified_prune(three_stumps, [(0.0,), (1.0,)],
                              PruneOptions(norm="l1"))
    assert outcome.num_kept == 1
    assert certify(three_stumps, outcome.weights, epsilon=1e-6).identical


def test_already_minimal_ensemble_keeps_everything():
    ens = random_stump_ensemble(2012, max_trees=5)
    ps = PruneSet(ens)
    ps.add_cells(list(enumerate_cells(ens.schema)))
    assert brute_force_min_support(ps) == ens.num_trees
    outcome = certified_prune(ens, seed_points(ens), PruneOptions(norm="l0"))
    assert outcome.num_kept == ens.num_trees


def test_l0_certifies_sixty_boosted_stumps():
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_adaboost(data, num_trees=60, max_depth=1)
    outcome = certified_prune(ens, data.X, PruneOptions(norm="l0"))
    assert outcome.num_kept == 5
    assert not certify(ens, outcome.weights, epsilon=1e-6).disagreement_cells


def test_reprune_is_idempotent():
    for seed in (1000, 1003, 1005):
        ens = random_stump_ensemble(seed)
        outcome = certified_prune(ens, seed_points(ens),
                                  PruneOptions(norm="l0"))
        again = certified_prune(reweighted(ens, outcome.weights),
                                seed_points(ens), PruneOptions(norm="l0"))
        assert again.num_kept == outcome.num_kept


def test_working_set_strictly_grows():
    for seed, ens in stump_ensembles(1600, 10):
        outcome = certified_prune(ens, seed_points(ens),
                                  PruneOptions(norm="l1"))
        sizes = [rec.working_set_size for rec in outcome.history]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert outcome.iterations == len(outcome.history)
        assert outcome.iterations <= ens.schema.num_cells()


def test_oracle_call_accounting():
    # every round either solves all C(C-1) pair MIPs or is settled by the
    # screen, which adds cells and solves none; the last round solved
    # every MIP and added nothing.  A round keeps the pruner's result and
    # the pair outcomes, and a MIP round adds exactly its pairs' cells.
    for seed, ens in stump_ensembles(1700, 5):
        outcome = certified_prune(ens, seed_points(ens),
                                  PruneOptions(norm="l1"))
        C = ens.num_classes
        with_pairs = [r for r in outcome.history if r.pairs]
        assert outcome.n_oracle == len(with_pairs) * C * (C - 1)
        assert all(len(r.pairs) == C * (C - 1) for r in with_pairs)
        for r in with_pairs:
            assert set(r.added_cells) == {p.cell for p in r.pairs
                                          if p.cell is not None}
        last = outcome.history[-1]
        assert last.pairs and not last.added_cells
        assert last.prune.support == outcome.support
        assert np.array_equal(last.prune.weights, outcome.weights)
        assert all(r.added_cells for r in outcome.history if r.screened)
        assert set(outcome.wall_time) == {"prune", "oracle", "total"}
        assert outcome.wall_time["total"] >= 0.0


def test_screen_never_adds_a_tied_cell():
    # cells (0,) and (2,) tie 1:1 under the original weights, so they lie
    # outside the oracle's margin rows and must not reach the working set
    trees = [make_stump(0, 0.0, (1, 0), (0, 1)),
             make_stump(0, 1.0, (0, 1), (1, 0))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    for norm in ("l0", "l1"):
        outcome = certified_prune(ens, [(0.5,)], PruneOptions(norm=norm))
        assert not certify(ens, outcome.weights,
                           epsilon=1e-6).disagreement_cells
        for record in outcome.history:
            assert not {(0,), (2,)} & set(record.added_cells)


def test_screen_settles_rounds_on_a_forest():
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 20, max_depth=3, seed=0)
    outcome = certified_prune(ens, data.X[:4], PruneOptions(norm="l0"))
    screened = [r.index for r in outcome.history if r.screened]
    # the screen settles at least one round, never the last, and every
    # round it leaves solves both pairs' MIPs
    assert screened and outcome.iterations not in screened
    assert outcome.n_oracle == 2 * (outcome.iterations - len(screened))
    assert not certify(ens, outcome.weights, epsilon=1e-6).disagreement_cells


def test_a_forest_whose_oracle_cuts_cells_certifies():
    # Its oracle cuts cells off with no-good rows, which must keep their
    # right-hand sides small: the solver's check tolerance grows with the
    # largest |b|, and a right-hand side of 1 - |on| (down to -17 on a
    # feature of 18 thresholds here) lifts it above epsilon, so that a
    # re-solve fails its numerical verification (SolverFailureError).
    data = make_synthetic("blobs", n=40, seed=3)
    ens = train_random_forest(data, 30, max_depth=3, seed=0)
    outcome = certified_prune(ens, data.X[:4], PruneOptions(norm="l1"))
    assert sum(p.cuts for r in outcome.history for p in r.pairs) >= 1
    assert not certify(ens, outcome.weights, epsilon=1e-6).disagreement_cells


def test_tied_seed_row_is_an_error_under_both_norms():
    # seed row 3 has original margin 0
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 10, max_depth=3, seed=0)
    for norm in ("l0", "l1"):
        with pytest.raises(TiedPredictionError, match="tied"):
            certified_prune(ens, data.X[:4], PruneOptions(norm=norm))


def test_outcome_is_deterministic():
    """Two runs give the same weights, support and history.  That holds
    only at a fixed BLAS thread count, which changes the roundoff of
    the solver's linear algebra: the 11-tree depth-3 forest on
    ``make_synthetic("linear", 120, 0, num_features=8)`` under ``l1``,
    all rows as seeds, certifies in 4 rounds with one thread and in 3
    with two on a 2-vCPU Xeon machine, keeping the same 11 trees.  The
    benchmark pins one thread."""
    ens = random_stump_ensemble(1008)
    a = certified_prune(ens, seed_points(ens), PruneOptions(norm="l0"))
    b = certified_prune(ens, seed_points(ens), PruneOptions(norm="l0"))
    assert a.weights.tolist() == b.weights.tolist()
    assert a.support == b.support
    assert a.iterations == b.iterations
    assert [r.added_cells for r in a.history] == \
        [r.added_cells for r in b.history]


def test_pruned_weights_agree_everywhere():
    rng = np.random.default_rng(41)
    for seed, ens in stump_ensembles(1800, 8):
        outcome = certified_prune(ens, seed_points(ens),
                                  PruneOptions(norm="l1"))
        assert certify(ens, outcome.weights, epsilon=1e-6).identical
        points = sample_uniform_points(ens.schema, 300, rng)
        assert fidelity(ens, outcome.weights, points) == 1.0


def test_fidelity_of_original_weights_is_one():
    ens = random_stump_ensemble(1000)
    points = sample_uniform_points(ens.schema, 100, 3)
    assert fidelity(ens, ens.alpha, points) == 1.0


def test_fidelity_counts_disagreements():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (1, 0), (0, 1))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    # w=(0,0) scores 0 everywhere -> always class 0; disagrees right of 0.5
    points = [(0.2,), (0.4,), (0.6,), (0.8,)]
    assert fidelity(ens, (0.0, 0.0), points) == 0.5


def test_fidelity_rejects_empty_points():
    ens = random_stump_ensemble(1000)
    with pytest.raises(InputError):
        fidelity(ens, ens.alpha, np.empty((0, ens.schema.num_features)))


def test_accuracy_hand_count():
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0],
                         raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))])
    points = [(0.1,), (0.2,), (0.3,), (0.7,), (0.9,)]
    preds = predict_classes_batch(ens, ens.alpha, points)
    assert preds.tolist() == [0, 0, 0, 1, 1]
    assert accuracy(ens, ens.alpha, points, [0, 0, 0, 1, 1]) == 1.0
    assert accuracy(ens, ens.alpha, points, [1, 1, 1, 0, 0]) == 0.0
    assert accuracy(ens, ens.alpha, points, [0, 1, 0, 1, 0]) == \
        pytest.approx(3 / 5)


def test_accuracy_rejects_bad_labels():
    ens = random_stump_ensemble(1000)
    points = sample_uniform_points(ens.schema, 4, 0)
    with pytest.raises(InputError):
        accuracy(ens, ens.alpha, points, [0, 1, 0, ens.num_classes])


def test_empty_initial_points_rejected():
    ens = random_stump_ensemble(1000)
    with pytest.raises(InputError, match="initial"):
        certified_prune(ens, [], PruneOptions())


def test_nan_seed_point_rejected(three_stumps):
    with pytest.raises(InputError, match="finite"):
        certified_prune(three_stumps, [[0.4], [np.nan]], PruneOptions())


def test_option_validation():
    with pytest.raises(InputError):
        PruneOptions(norm="l2")
    for epsilon in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="epsilon"):
            PruneOptions(epsilon=epsilon)
    with pytest.raises(InputError):
        PruneOptions(max_iterations=0)
    for count in (2.5, "3", True, None):
        with pytest.raises(InputError, match="max_iterations"):
            PruneOptions(max_iterations=count)
    assert PruneOptions(max_iterations=np.int64(3)).max_iterations == 3


def linprog_optimum(problem):
    """scipy's optimum of the LP relaxation of a maximizing problem."""
    le, ge, eq = (problem.senses == k for k in (-1, 1, 0))
    ref = linprog(-problem.c,
                  A_ub=np.vstack([problem.A[le], -problem.A[ge]]),
                  b_ub=np.concatenate([problem.b[le], -problem.b[ge]]),
                  A_eq=problem.A[eq], b_eq=problem.b[eq],
                  bounds=np.column_stack([problem.lower, problem.upper]),
                  method="highs")
    assert ref.status == 0
    return -ref.fun


def test_a_depth_three_forest_in_the_paper_regime_certifies_at_the_root():
    # 9 depth-3 trees on 8 continuous features, all 120 rows as seeds.
    # The last round's pair MIPs have root bounds near -epsilon and
    # integer optima near -1: the floor row proves both empty at the root
    # instead of branching to the negative optimum.
    data = make_synthetic("linear", 120, 0, num_features=8)
    ens = train_random_forest(data, 9, max_depth=3, seed=0)
    outcome = certified_prune(ens, data.X, PruneOptions(norm="l1"))
    final = outcome.history[-1]
    assert final.added_cells == [] and len(final.pairs) == 2
    for pair in final.pairs:
        assert (pair.status, pair.objective, pair.nodes) == (
            SolveStatus.INFEASIBLE, None, 0)
        problem = build_separation(ens, pair.original).priced(
            outcome.weights, pair.challenger)
        assert problem.row_names[-1] == "floor"
        # without its floor the relaxation reaches above the integer
        # optimum, but not up to the floor
        relaxation = linprog_optimum(replace(
            problem, A=problem.A[:-1], senses=problem.senses[:-1],
            b=problem.b[:-1], row_names=problem.row_names[:-1]))
        assert relaxation < -VIOLATION_TOL
    points = sample_uniform_points(ens.schema, 10_000, 0)
    assert fidelity(ens, outcome.weights, points) == 1.0


def test_l1_certifies_two_hundred_stumps():
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_adaboost(data, num_trees=200, max_depth=1)
    outcome = certified_prune(ens, data.X, PruneOptions(norm="l1"))
    assert not certify(ens, outcome.weights, epsilon=1e-6).disagreement_cells
    pairs = [p for record in outcome.history for p in record.pairs]
    assert len(pairs) == outcome.n_oracle
    # a stump program is its indicators and ``one``: no flow columns
    assert all(p.cols < 10 for p in pairs)


def single_leaves(*leaves):
    """Unit-weight single-leaf trees over one continuous feature."""
    return build_ensemble(
        num_classes=len(leaves[0]),
        features=[{"name": "x0", "kind": "continuous"}],
        weights=[1.0] * len(leaves),
        raw_trees=[{"root": 0, "nodes": [{"id": 0, "kind": "leaf",
                                          "scores": list(scores)}]}
                   for scores in leaves])


@pytest.mark.parametrize("leaves", [
    ([1e-9, 0.0], [0.5, 0.0]),
    ([1e-9, 0.0, 0.0], [0.5, 0.0, 0.0]),
])
def test_a_margin_at_the_pivot_tolerance_is_zero(leaves):
    # the first tree's margin is 1e-9, the solver's pivot tolerance: it
    # covers no row, so both norms keep the second tree alone
    ens = single_leaves(*leaves)
    for norm in ("l0", "l1"):
        outcome = certified_prune(ens, [(0.0,)], PruneOptions(norm=norm))
        assert outcome.weights.tolist() == [0.0, 2.0]
        assert not certify(ens, outcome.weights,
                           DEFAULT_EPSILON).disagreement_cells


def test_an_original_margin_at_the_pivot_tolerance_is_a_tie():
    ens = single_leaves([1e-9, 0.0, 0.0])
    for norm in ("l0", "l1"):
        with pytest.raises(TiedPredictionError):
            certified_prune(ens, [(0.0,)], PruneOptions(norm=norm))


def split(i, j, left, right, **cut):
    return {"id": i, "kind": "split", "feature": j, "left": left,
            "right": right, **cut}


def leaf(i, *scores):
    return {"id": i, "kind": "leaf", "scores": list(scores)}


def test_l1_prices_at_the_scale_of_a_large_objective():
    # the only seed row's original margin is 5e-8, so l1 weighs the one
    # tree 2e7: pricing at an absolute reduced-cost tolerance swapped two
    # columns of pair (0, 3)'s root LP on roundoff until the pivot limit
    ens = build_ensemble(
        num_classes=4, weights=[0.1],
        features=[{"kind": "continuous"},
                  {"kind": "categorical", "levels": 2},
                  {"kind": "categorical", "levels": 2}],
        raw_trees=[{"root": 0, "nodes": [
            split(0, 1, 1, 2, category=1), leaf(1, 0, 0, 0, 0.9716961687),
            split(2, 0, 3, 4, threshold=0.0), leaf(3, 0, 0.818097, 0, 0.49665),
            split(4, 1, 5, 6, category=1),
            leaf(5, 0, 0, 0.23927555772777, 0.670663577576718),
            leaf(6, 5e-08, 0, 0, 0)]}])
    outcome = certified_prune(ens, sample_uniform_points(ens.schema, 1, 0),
                              PruneOptions(norm="l1"))
    assert outcome.weights.tolist() == pytest.approx([2e7])
    assert certify(ens, outcome.weights, DEFAULT_EPSILON).identical


@pytest.mark.parametrize("norm", ["l0", "l1"])
def test_a_tree_weighted_1e8_certifies(norm):
    # one categorical tree whose only seed cell wins by 1e-8, so both
    # norms weigh it 1e8: a pair LP is empty, and the Farkas row that
    # proves it carries multipliers near 1e9, whose roundoff left
    # residues near 4e-9 on rows whose slacks are unbounded
    ens = build_ensemble(
        num_classes=4, features=[{"kind": "categorical", "levels": 2}],
        weights=[0.1], raw_trees=[{"root": 0, "nodes": [
            split(0, 0, 1, 2, category=0), leaf(1, 0, 0, 0, 1e-8),
            split(2, 0, 3, 6, category=0), split(3, 0, 4, 5, category=0),
            leaf(4, 0, 0, 1, 0), leaf(5, 0, 0, 0, 0),
            split(6, 0, 7, 8, category=0), leaf(7, 0, 0, 0, 0),
            leaf(8, 0, 0, 0, 0)]}])
    outcome = certified_prune(ens, sample_uniform_points(ens.schema, 1, 0),
                              PruneOptions(norm=norm))
    assert outcome.weights.tolist() == pytest.approx([1e8])
    assert certify(ens, outcome.weights, DEFAULT_EPSILON).identical


@pytest.mark.parametrize("norm", ["l0", "l1"])
def test_a_cancellation_residue_is_no_dual_pivot(norm):
    # one tree whose seed cell wins by 2.75e-9, so both norms weigh it
    # about 3.6e8.  A pair LP has an all-zero '>=' row with right-hand
    # side 1e-6 and is plainly empty, but from the slack basis the dual
    # simplex met a pivot row whose largest entry is 3.64e8 and whose
    # entry 5.96e-8 (2^-24) is the residue of 3.64e8 - 3.64e8; a pivot
    # on it led on to a singular basis and a failed solve
    ens = build_ensemble(
        num_classes=3, features=[{"kind": "continuous"}], weights=[1.0],
        raw_trees=[{"root": 0, "nodes": [
            split(0, 0, 1, 2, threshold=0.0), leaf(1, 0, 0, 0.75),
            split(2, 0, 3, 4, threshold=0.0), leaf(3, 0, 0, 0),
            split(4, 0, 5, 6, threshold=0.0), leaf(5, 0, 0, 1),
            leaf(6, 0, 0, 2.7501192265005645e-09)]}])
    outcome = certified_prune(ens, sample_uniform_points(ens.schema, 1, 0),
                              PruneOptions(norm=norm))
    assert outcome.weights.tolist() == pytest.approx([3.636e8], rel=1e-3)
    assert certify(ens, outcome.weights, DEFAULT_EPSILON).identical


# Subnormal leaf scores put coefficients near 1e-311 and 5e-324 into the
# oracle's margin rows, where dividing a row's residual by the row's
# smallest coefficient overflowed.  In "overflowing_start" one of 1e-308
# gives a pair's start a B^{-1} whose condition estimate overflows, which
# must read as a singular start.  Every tree has weight 1.
SUBNORMAL_DOCUMENTS = {
    "overflowing_start": (4, [{"kind": "continuous"}], [
        [split(0, 0, 1, 4, threshold=0.0),
         split(1, 0, 2, 3, threshold=0.0), leaf(2, 0, 0, 0, 0),
         leaf(3, 0, 0, 1.1125369292536007e-308, 0),
         leaf(4, 0, 0, 0.5, 0)],
        [split(0, 0, 1, 2, threshold=0.0), leaf(1, 0, 0, 1, 0),
         leaf(2, 0, 1, 1, 0)]]),
    "three_classes": (3, [{"kind": "continuous"}], [
        [split(0, 0, 1, 2, threshold=0.0), leaf(1, 0, 0, 0),
         leaf(2, 0, 0.5, 0)],
        [leaf(0, 0, 0, 0)],
        [leaf(0, 0, 0, 1)],
        [split(0, 0, 1, 2, threshold=0.0), leaf(1, 0, 0, 0),
         split(2, 0, 3, 4, threshold=0.0), leaf(3, 0, 0, 0),
         leaf(4, 0, 2.225073858507e-311, 0)]]),
    "four_classes": (4, [{"kind": "continuous"}, {"kind": "continuous"},
                         {"kind": "binary"}], [
        [split(0, 2, 1, 2), leaf(1, 0, 0, 0, 1), leaf(2, 0, 0, 0, 0)],
        [leaf(0, 0, 0, 0, 0)],
        [leaf(0, 0, 0, 0, 0)],
        [split(0, 2, 1, 2), leaf(1, 0, 0, 0, 0),
         split(2, 0, 3, 4, threshold=0.0),
         split(3, 0, 5, 6, threshold=0.0), leaf(5, 0, 0, 0, 0),
         leaf(6, 0, 0, 0, 0),
         split(4, 0, 7, 8, threshold=0.0), leaf(7, 0, 0, 0, 0),
         leaf(8, 0, 0, 0, 5e-324)]]),
}


@pytest.mark.parametrize("norm", ["l0", "l1"])
@pytest.mark.parametrize("name", sorted(SUBNORMAL_DOCUMENTS))
def test_subnormal_leaf_scores_certify_or_raise_a_typed_error(name, norm):
    num_classes, features, trees = SUBNORMAL_DOCUMENTS[name]
    ens = build_ensemble(
        num_classes=num_classes, features=features,
        weights=[1.0] * len(trees),
        raw_trees=[{"root": 0, "nodes": nodes} for nodes in trees])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            outcome = certified_prune(
                ens, sample_uniform_points(ens.schema, 1, 0),
                PruneOptions(norm=norm))
        except (InfeasiblePruneError, TiedPredictionError):
            return
    assert not certify(ens, outcome.weights,
                       DEFAULT_EPSILON).disagreement_cells


@settings(max_examples=300, deadline=None)
@given(mixed_documents(), st.booleans(), st.booleans(), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_prune_loop_certifies_or_raises_a_typed_error(doc, duplicate, zero,
                                                      rows, seed):
    # mixed features, 2-4 classes, depth <= 3, sometimes a duplicated tree
    # and a zero weight; the seed rows come from 1-12 uniform draws
    if duplicate:
        doc["trees"].append(doc["trees"][-1])
        doc["weights"].append(doc["weights"][-1])
    if zero and len(doc["weights"]) > 1:
        doc["weights"][0] = 0.0
    ens = model_from_dict(doc)
    points = sample_uniform_points(ens.schema, rows, seed)
    for norm in ("l0", "l1"):
        try:
            outcome = certified_prune(ens, points, PruneOptions(norm=norm))
        except (InfeasiblePruneError, TiedPredictionError, InputError):
            continue
        assert not certify(ens, outcome.weights,
                           DEFAULT_EPSILON).disagreement_cells
