"""The iterative prune/separate loop and its run metrics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equiprune import (DEFAULT_EPSILON, InfeasiblePruneError, InputError,
                       PruneOptions, PruneSet, TiedPredictionError, accuracy,
                       brute_force_min_support, build_ensemble,
                       certified_prune, certify, enumerate_cells, fidelity,
                       make_synthetic, model_from_dict, predict_classes_batch,
                       sample_uniform_points, train_adaboost,
                       train_random_forest)
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
    assert brute_force_min_support(ens, ps) == ens.num_trees
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
    assert screened == [1, 2]
    assert outcome.iterations == 3
    assert outcome.n_oracle == 2
    assert not certify(ens, outcome.weights, epsilon=1e-6).disagreement_cells


def test_tied_seed_row_is_an_error_under_both_norms():
    # seed row 3 has original margin 0
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 10, max_depth=3, seed=0)
    for norm in ("l0", "l1"):
        with pytest.raises(TiedPredictionError, match="tied"):
            certified_prune(ens, data.X[:4], PruneOptions(norm=norm))


def test_outcome_is_deterministic():
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


# Subnormal leaf scores put coefficients near 1e-311 and 5e-324 into the
# oracle's margin rows, where dividing a phase-1 leftover by the row's
# smallest coefficient overflowed.  Every tree has weight 1.
SUBNORMAL_DOCUMENTS = {
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
