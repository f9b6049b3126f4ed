"""Margin construction and finite-set weight minimization."""

import numpy as np
import pytest

from equiprune import (InfeasiblePruneError, InputError, PruneSet,
                       TiedPredictionError, cell_of, sample_uniform_points,
                       brute_force_min_support, build_ensemble, build_margins,
                       cell_class, compute_big_w, enumerate_cells,
                       predict_class, prune_l0, prune_l1, support_of)
from conftest import (make_stump, one_hot, random_boosted_instance,
                      stump_ensembles)
from test_ensemble import random_mixed_ensemble


def all_cells_set(ensemble):
    ps = PruneSet(ensemble)
    for cell in enumerate_cells(ensemble.schema):
        ps.add_cell(cell)
    return ps


def single_stump_ensemble():
    return build_ensemble(num_classes=2,
                          features=[{"name": "x1", "kind": "continuous"}],
                          weights=[1.0],
                          raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))])


def test_one_hot_margin_is_one():
    ens = single_stump_ensemble()
    ps = PruneSet(ensemble=ens)
    ps.add_point((0.3,))
    margins = build_margins(ens, ps)
    # label 0, challenger 1: h^{(0)} - h^{(1)} = 1 - 0
    assert margins.labels[0] == 0
    assert margins.g[0, 1, 0] == 1.0


def test_abstaining_tree_margin_is_zero():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_point((0.3,))
    margins = build_margins(ens, ps)
    assert margins.g[0, 1, 1] == 0.0


def test_fixture_margin_table(three_stumps):
    """Hand evaluation on the bundled 3-stump model (thresholds .3/.5/.7,
    every tree votes class 0 left and class 1 right)."""
    ps = PruneSet(three_stumps)
    for cell in enumerate_cells(three_stumps.schema):
        ps.add_cell(cell)
    margins = build_margins(three_stumps, ps)
    assert margins.g.shape == (4, 2, 3)
    # cell 0 (x <= 0.3): every tree votes 0, label 0, all margins +1
    # cell 1 (0.3 < x <= 0.5): tree 0 votes 1, others 0 -> label 0
    # cell 2 (0.5 < x <= 0.7): trees 0,1 vote 1 -> label 1
    # cell 3 (x > 0.7): all vote 1, label 1
    assert margins.labels.tolist() == [0, 0, 1, 1]
    assert margins.g[0, 1].tolist() == [1.0, 1.0, 1.0]
    assert margins.g[1, 1].tolist() == [-1.0, 1.0, 1.0]
    assert margins.g[2, 0].tolist() == [1.0, 1.0, -1.0]
    assert margins.g[3, 0].tolist() == [1.0, 1.0, 1.0]


def test_big_w_formula_unit_margins():
    # alpha=(1,1,1), delta_min=1: one voting stump, two abstainers
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5)),
             make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1, 1, 1], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_point((0.3,))
    # W = 10 * max(alpha) / delta_min = 10 * 1 / 1
    assert compute_big_w(ens, ps) == pytest.approx(10.0)


def test_big_w_formula_scaled():
    # alpha=(2,1), delta_min=0.5: tree 0 abstains, tree 1's leaf gives a
    # score difference of 0.5, so delta = 2*0 + 1*0.5
    trees = [make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5)),
             make_stump(0, 0.5, (0.75, 0.25), (0.25, 0.75))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[2.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_point((0.3,))
    # W = 10 * 2 / 0.5 = 40
    assert compute_big_w(ens, ps) == pytest.approx(40.0)


def test_tied_original_prediction_is_an_error():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_point((0.3,))
    with pytest.raises(TiedPredictionError, match="tied"):
        compute_big_w(ens, ps)


def test_l0_keeps_only_the_middle_stump(three_stumps):
    ps = all_cells_set(three_stumps)
    bound = compute_big_w(three_stumps, ps)
    result = prune_l0(three_stumps, ps, bound)
    assert result.support == (1,)
    assert support_of(result.weights) == (1,)


def test_l0_single_tree():
    ens = single_stump_ensemble()
    ps = all_cells_set(ens)
    result = prune_l0(ens, ps, compute_big_w(ens, ps))
    assert result.support == (0,)


def test_l0_matches_subset_search():
    for seed, ens in stump_ensembles(500, 8):
        ps = all_cells_set(ens)
        try:
            bound = compute_big_w(ens, ps)
        except TiedPredictionError:
            continue
        result = prune_l0(ens, ps, bound)
        assert len(result.support) == brute_force_min_support(ens, ps)


def test_l1_single_stump_unit_weight():
    ens = single_stump_ensemble()
    ps = all_cells_set(ens)
    result = prune_l1(ens, ps)
    assert result.weights.tolist() == pytest.approx([1.0])
    assert result.objective == pytest.approx(1.0)


def test_l1_identical_stumps_use_one():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)) for _ in range(2)]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1, 1], raw_trees=trees)
    ps = all_cells_set(ens)
    result = prune_l1(ens, ps)
    assert result.objective == pytest.approx(1.0)
    # a vertex of the LP has at most one active weight here
    assert len(result.support) == 1


def test_all_nonpositive_margins_infeasible():
    # Labels always come from alpha, so a real PruneSet row is never all
    # non-positive; exercise the error path with a doctored table whose
    # only positive column is zeroed out.
    trees = [make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5)),
             make_stump(0, 0.5, (1, 0), (0, 1))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 0.001], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_point((0.3,))
    margins = build_margins(ens, ps)
    margins.g[:, :, 1] = 0.0
    with pytest.raises(InfeasiblePruneError):
        prune_l1(ens, ps, margins=margins)


def test_outputs_are_faithful_on_the_set():
    for seed, ens in stump_ensembles(600, 10):
        ps = all_cells_set(ens)
        try:
            bound = compute_big_w(ens, ps)
        except TiedPredictionError:
            continue
        for result in (prune_l1(ens, ps), prune_l0(ens, ps, bound)):
            for cell, label in zip(ps.cells, ps.labels):
                assert cell_class(ens, result.weights, cell) == label


def test_scaled_alpha_is_feasible():
    """w = alpha / delta_min satisfies every margin row."""
    for seed, ens in stump_ensembles(700, 10):
        ps = all_cells_set(ens)
        margins = build_margins(ens, ps)
        delta = margins.min_alpha_margin()
        if delta <= 1e-9:
            continue
        w = np.array(ens.alpha) / delta
        for i in range(margins.num_entries):
            for c in range(margins.num_classes):
                if c == margins.labels[i]:
                    continue
                assert w @ margins.g[i, c] >= 1.0 - 1e-9


def test_adding_points_never_shrinks_l0():
    for seed, ens in stump_ensembles(800, 6):
        cells = list(enumerate_cells(ens.schema))
        half = PruneSet(ens)
        for cell in cells[: max(1, len(cells) // 2)]:
            half.add_cell(cell)
        full = all_cells_set(ens)
        try:
            k_half = len(prune_l0(ens, half, compute_big_w(ens, half)).support)
            k_full = len(prune_l0(ens, full, compute_big_w(ens, full)).support)
        except TiedPredictionError:
            continue
        assert k_half <= k_full


def test_prune_set_dedups_by_cell():
    ens = single_stump_ensemble()
    ps = PruneSet(ens)
    assert ps.add_point((0.3,)) is True
    assert ps.add_point((0.1,)) is False  # same side of the stump
    assert ps.add_point((0.9,)) is True
    assert len(ps) == 2


def test_prune_set_labels_match_alpha_vote():
    for seed, ens in stump_ensembles(900, 5):
        ps = all_cells_set(ens)
        for point, label in zip(ps.points, ps.labels):
            assert predict_class(ens, ens.alpha, point) == label


def row_by_row(ensemble, X):
    """The working set seeded one point at a time: cell, dedupe, label."""
    seen, points, cells, labels = set(), [], [], []
    for x in X:
        cell = cell_of(ensemble.schema, x)
        if cell in seen:
            continue
        seen.add(cell)
        points.append(tuple(float(v) for v in x))
        cells.append(cell)
        labels.append(cell_class(ensemble, ensemble.alpha, cell))
    return points, cells, labels


def test_batch_seeding_matches_row_by_row():
    rng = np.random.default_rng(13)
    draws = [random_boosted_instance(seed) for seed in range(30)]
    cases = [(ens, data.X) for ens, data in filter(None, draws)]
    for _ in range(30):
        ens = random_mixed_ensemble(rng)
        cases.append((ens, sample_uniform_points(ens.schema, 20, rng)))
    for ens, X in cases:
        # repeat some rows, so both the batch and later calls see duplicates
        X = X[rng.integers(0, len(X), size=2 * len(X))]
        expected = row_by_row(ens, X)
        batch = PruneSet(ens)
        half = len(X) // 2
        added = batch.add_points(X[:half]) + batch.add_points(X[half:])
        assert added == len(expected[0])
        assert (batch.points, batch.cells, batch.labels) == expected
        single = PruneSet(ens)
        assert sum(single.add_point(x) for x in X) == added
        assert (single.points, single.cells, single.labels) == expected


def test_batch_seeding_rejects_invalid_rows_before_adding_any():
    ens = single_stump_ensemble()
    ps = PruneSet(ens)
    with pytest.raises(InputError):
        ps.add_points([[0.3], [np.nan]])
    with pytest.raises(InputError):
        ps.add_points([[0.3], [0.1, 0.2]])
    assert len(ps) == 0
