"""Margin construction and finite-set weight minimization."""

import itertools

import numpy as np
import pytest

from equiprune import (InfeasiblePruneError, InputError,
                       IterationLimitError, ProblemBuilder, PruneSet,
                       SolveStatus, TiedPredictionError,
                       brute_force_min_support, build_ensemble, build_margins,
                       cell_center, cell_scores_batch, cells_of,
                       compute_big_w, enumerate_cells, model_from_dict,
                       model_to_dict, predict_classes_batch, prune_l0,
                       prune_l1, sample_uniform_points, solve_milp, solver,
                       support_of)
from equiprune import pruner
from equiprune.pruner import min_weight_sum
from conftest import (make_stump, one_hot, random_boosted_instance,
                      stump_ensembles, three_voter_majority)
from test_ensemble import random_mixed_ensemble


def all_cells_set(ensemble):
    ps = PruneSet(ensemble)
    ps.add_cells(list(enumerate_cells(ensemble.schema)))
    return ps


def zeroed_and_duplicated(ensemble, rng):
    """``ensemble`` with one tree appended again and one weight set to
    zero."""
    M = ensemble.num_trees
    doc = model_to_dict(ensemble)
    doc["weights"].append(float(rng.uniform(0.1, 2.0)))
    doc["weights"][int(rng.integers(M + 1))] = 0.0
    doc["trees"].append(doc["trees"][int(rng.integers(M))])
    return model_from_dict(doc)


def l0_cases():
    """Stump ensembles, and random mixed ones (continuous, binary and
    categorical splits, 2-4 classes) with a zero weight and a duplicated
    tree, each on its full cell set."""
    cases = [(ens, all_cells_set(ens)) for _, ens in stump_ensembles(500, 8)]
    rng = np.random.default_rng(31)
    for _ in range(30):
        ens = zeroed_and_duplicated(random_mixed_ensemble(rng), rng)
        cases.append((ens, all_cells_set(ens)))
    return cases


def big_w_min_support(ensemble, prune_set, W):
    """Fewest trees by the big-W MIP: the keep rows, w_m <= W u_m and min
    sum(u) over binary u."""
    M = ensemble.num_trees
    pb = ProblemBuilder()
    w = [pb.add_var(lo=0.0, up=W) for _ in range(M)]
    u = [pb.add_var(lo=0.0, up=1.0, obj=1.0, integer=True) for _ in range(M)]
    for row in build_margins(ensemble, prune_set):
        pb.add_row(zip(w, row), ">=", 1.0)
    for m in range(M):
        pb.add_row([(w[m], 1.0), (u[m], -W)], "<=", 0.0)
    sol = solve_milp(pb.build())
    assert sol.status == SolveStatus.OPTIMAL
    return round(sol.objective)


def single_stump_ensemble():
    return build_ensemble(num_classes=2,
                          features=[{"name": "x1", "kind": "continuous"}],
                          weights=[1.0],
                          raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))])


def test_one_hot_margin_is_one():
    ens = single_stump_ensemble()
    ps = PruneSet(ensemble=ens)
    ps.add_points([(0.3,)])
    # label 0, challenger 1: h^{(0)} - h^{(1)} = 1 - 0
    assert ps.labels == [0]
    assert build_margins(ens, ps).tolist() == [[1.0]]


def test_abstaining_tree_margin_is_zero():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([(0.3,)])
    assert build_margins(ens, ps).tolist() == [[1.0, 0.0]]


def test_fixture_margin_table(three_stumps):
    """Hand evaluation on the bundled 3-stump model (thresholds .3/.5/.7,
    every tree votes class 0 left and class 1 right)."""
    ps = all_cells_set(three_stumps)
    # one row per cell, against its one other class:
    # cell 0 (x <= 0.3): every tree votes 0, label 0, all margins +1
    # cell 1 (0.3 < x <= 0.5): tree 0 votes 1, others 0 -> label 0
    # cell 2 (0.5 < x <= 0.7): trees 0,1 vote 1 -> label 1
    # cell 3 (x > 0.7): all vote 1, label 1
    assert ps.labels == [0, 0, 1, 1]
    assert build_margins(three_stumps, ps).tolist() == [[1.0, 1.0, 1.0],
                                                        [-1.0, 1.0, 1.0],
                                                        [1.0, 1.0, -1.0],
                                                        [1.0, 1.0, 1.0]]


def test_big_w_formula_unit_margins():
    # alpha=(1,1,1), delta_min=1: one voting stump, two abstainers
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5)),
             make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1, 1, 1], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([(0.3,)])
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
    ps.add_points([(0.3,)])
    # W = 10 * 2 / 0.5 = 40
    assert compute_big_w(ens, ps) == pytest.approx(40.0)


def test_tied_original_prediction_is_an_error():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([(0.3,)])
    with pytest.raises(TiedPredictionError, match="tied"):
        compute_big_w(ens, ps)
    with pytest.raises(TiedPredictionError, match="tied"):
        prune_l0(ens, ps)
    with pytest.raises(TiedPredictionError, match="tied"):
        prune_l1(ens, ps)


def test_a_tie_names_its_entry_and_class():
    # cell 0 scores (1, 0, 0); cell 1 scores (0, 1, 1), a tie of class 1
    # (the tie-break's pick) with class 2 in the last row of G
    trees = [make_stump(0, 0.5, one_hot(0, 3), one_hot(1, 3)),
             make_stump(0, 0.5, (0, 0, 0), one_hot(2, 3))]
    ens = build_ensemble(num_classes=3,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([(0.3,), (0.7,)])
    assert (build_margins(ens, ps) @ ens.alpha).tolist() == [1, 1, 1, 0]
    with pytest.raises(TiedPredictionError,
                       match=r"point 1 \(class 1 against 2\)"):
        prune_l1(ens, ps)


def test_l0_keeps_only_the_middle_stump(three_stumps):
    ps = all_cells_set(three_stumps)
    result = prune_l0(three_stumps, ps)
    assert result.support == (1,)
    assert support_of(result.weights) == (1,)


def test_l0_single_tree():
    ens = single_stump_ensemble()
    ps = all_cells_set(ens)
    result = prune_l0(ens, ps)
    assert result.support == (0,)


def test_l0_matches_subset_search():
    checked = 0
    for ens, ps in l0_cases():
        try:
            result = prune_l0(ens, ps)
        except TiedPredictionError:
            continue
        assert len(result.support) == brute_force_min_support(ens, ps)
        checked += 1
    assert checked >= 30


def test_l0_matches_big_w_mip():
    checked = 0
    for ens, ps in l0_cases():
        try:
            result = prune_l0(ens, ps)
        except TiedPredictionError:
            continue
        assert len(result.support) == result.objective
        # compute_big_w bounds the weights of the original support only;
        # a sparser one may need more (one tree at weight 50 against
        # W = 43 among these cases), so W must also cover the answer
        W = max(compute_big_w(ens, ps), 2.0 * result.weights.max())
        assert len(result.support) == big_w_min_support(ens, ps, W)
        checked += 1
    assert checked >= 30


def test_carried_conflicts_give_the_fresh_support_size():
    """Conflicts found on half the cells stay valid once the other half
    joins: every one is met by each working support, and the grown set
    prunes to the size a fresh set with the same rows does."""
    for ens, full in l0_cases():
        grown = PruneSet(ens)
        half = len(full.cells) // 2
        grown.add_cells(full.cells[:half])
        try:
            prune_l0(ens, grown)
            grown.add_cells(full.cells[half:])
            result = prune_l0(ens, grown)
        except TiedPredictionError:
            continue
        assert len(result.support) == len(prune_l0(ens, full).support)
        G = build_margins(ens, full)
        for conflict in grown.conflicts:
            assert set(conflict) & set(result.support)
            rest = [m for m in range(ens.num_trees) if m not in conflict]
            assert min_weight_sum(G, rest)[1].status == SolveStatus.INFEASIBLE


def test_l0_tree_selection_stops_at_the_node_limit(monkeypatch):
    ens = three_voter_majority()
    assert prune_l0(ens, all_cells_set(ens)).nodes >= 1
    monkeypatch.setattr(solver, "_MAX_NODES", 0)
    with pytest.raises(IterationLimitError, match="node limit"):
        prune_l0(ens, all_cells_set(ens))


def test_l1_weight_minimization_stops_at_the_pivot_limit(monkeypatch):
    ens = three_voter_majority()
    assert prune_l1(ens, all_cells_set(ens)).iterations >= 1
    monkeypatch.setattr(solver, "_MAX_PIVOTS", 0)
    with pytest.raises(IterationLimitError, match="pivot limit"):
        prune_l1(ens, all_cells_set(ens))


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


def skip_tie_check(monkeypatch):
    """A G whose rows the original weights all keep is feasible (alpha
    over its smallest margin), so the tie check refuses every infeasible
    G; doctored ones reach the solver only past it."""
    monkeypatch.setattr(pruner, "_untied_margin", lambda *args: np.inf)


def test_all_nonpositive_margins_infeasible(monkeypatch):
    # Labels always come from alpha, so a real PruneSet row is never all
    # non-positive; exercise the error path with a doctored G whose only
    # positive column is zeroed out.
    trees = [make_stump(0, 0.5, (0.5, 0.5), (0.5, 0.5)),
             make_stump(0, 0.5, (1, 0), (0, 1))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 0.001], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([(0.3,)])
    margins = build_margins(ens, ps)
    margins[:, 1] = 0.0
    skip_tie_check(monkeypatch)
    with pytest.raises(InfeasiblePruneError):
        prune_l1(ens, ps, margins=margins)
    with pytest.raises(InfeasiblePruneError):
        prune_l0(ens, ps, margins=margins)


def test_fractional_failure_ray_still_fails(monkeypatch):
    """Keep rows (1, -1) and (-0.2, 0.1) admit no reweighting, and the
    support check's optimum on both trees is 1.2, from y = (0.2, 1):
    every optimum of at least 1 must count as a failure."""
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)) for _ in range(2)]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([[0.3], [0.7]])
    margins = np.array([(1.0, -1.0), (-0.2, 0.1)])
    skip_tie_check(monkeypatch)
    with pytest.raises(InfeasiblePruneError):
        prune_l0(ens, ps, margins=margins)


def keeps_every_row(G):
    """Whether some w >= 0 has G w >= 1, by scipy's HiGHS on G's columns
    scaled to largest |entry| 1, which changes no answer: on raw
    columns of about 1e-8 HiGHS calls some feasible G infeasible."""
    from scipy.optimize import linprog
    rows, trees = G.shape
    scale = np.abs(G).max(axis=0)
    return linprog(np.zeros(trees), A_ub=-G / np.where(scale, scale, 1.0),
                   b_ub=-np.ones(rows), bounds=(0, None),
                   method="highs").status == 0


def test_l0_on_tiny_score_differences_matches_subset_search(monkeypatch):
    """Doctored keep rows with columns scaled by 1e-8 ... 1 and the
    entries build_margins zeroes (|g| <= 1e-9) zeroed: entries just
    above the solver's pivot tolerance must not fail a support that
    keeps every row.  prune_l0 keeps as few trees as a subset search
    with scipy's linprog, and its weights keep every row."""
    skip_tie_check(monkeypatch)
    rng = np.random.default_rng(0)
    infeasible = 0
    for _ in range(400):
        M, rows = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        G = (rng.uniform(-1.0, 1.0, (rows, M))
             * 10.0 ** -rng.integers(0, 9, M).astype(float))
        G[np.abs(G) <= 1e-9] = 0.0
        ens = build_ensemble(
            num_classes=2, features=[{"name": "x1", "kind": "continuous"}],
            weights=[1.0] * M,
            raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))] * M)
        best = next((k for k in range(1, M + 1)
                     for trees in itertools.combinations(range(M), k)
                     if keeps_every_row(G[:, trees])), None)
        if best is None:
            infeasible += 1
            with pytest.raises(InfeasiblePruneError):
                prune_l0(ens, PruneSet(ens), margins=G)
            continue
        result = prune_l0(ens, PruneSet(ens), margins=G)
        assert len(result.support) == best
        assert np.all(G @ result.weights >= 1.0 - 1e-6)
    assert 0 < infeasible < 300


def test_outputs_are_faithful_on_the_set():
    for seed, ens in stump_ensembles(600, 10):
        ps = all_cells_set(ens)
        try:
            l0 = prune_l0(ens, ps)
        except TiedPredictionError:
            continue
        for result in (prune_l1(ens, ps), l0):
            scores = cell_scores_batch(ens, result.weights, ps.cells)
            assert np.argmax(scores, axis=1).tolist() == ps.labels


def test_scaled_alpha_is_feasible():
    """w = alpha / delta_min satisfies every margin row."""
    for seed, ens in stump_ensembles(700, 10):
        G = build_margins(ens, all_cells_set(ens))
        delta = (G @ ens.alpha).min()
        if delta <= 1e-9:
            continue
        assert np.all(G @ (np.array(ens.alpha) / delta) >= 1.0 - 1e-9)


def test_adding_points_never_shrinks_l0():
    for seed, ens in stump_ensembles(800, 6):
        cells = list(enumerate_cells(ens.schema))
        half = PruneSet(ens)
        half.add_cells(cells[: max(1, len(cells) // 2)])
        full = all_cells_set(ens)
        try:
            k_half = len(prune_l0(ens, half).support)
            k_full = len(prune_l0(ens, full).support)
        except TiedPredictionError:
            continue
        assert k_half <= k_full


def test_prune_set_dedups_by_cell():
    ens = single_stump_ensemble()
    ps = PruneSet(ens)
    assert ps.add_points([(0.3,)]) == 1
    assert ps.add_points([(0.1,)]) == 0  # same side of the stump
    assert ps.add_points([(0.9,), (0.2,)]) == 1
    assert ps.add_cells([(1,), (0,)]) == 0
    assert ps.add_cells([]) == 0
    assert ps.add_points([]) == 0
    assert len(ps) == 2


def test_prune_set_labels_match_alpha_vote():
    for seed, ens in stump_ensembles(900, 5):
        ps = all_cells_set(ens)
        points = [cell_center(ens.schema, cell) for cell in ps.cells]
        assert predict_classes_batch(ens, ens.alpha, points).tolist() == \
            ps.labels


def row_by_row(ensemble, X):
    """The working set seeded one point at a time: cell, dedupe, label."""
    seen, cells, labels = set(), [], []
    for x in X:
        cell = tuple(cells_of(ensemble.schema, [x])[0].tolist())
        if cell in seen:
            continue
        seen.add(cell)
        cells.append(cell)
        scores = cell_scores_batch(ensemble, ensemble.alpha, [cell])[0]
        labels.append(int(np.argmax(scores)))
    return cells, labels


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
        assert (batch.cells, batch.labels) == expected
        by_cell = PruneSet(ens)
        assert sum(by_cell.add_cells([cell]) for cell in
                   map(tuple, cells_of(ens.schema, X).tolist())) == added
        assert (by_cell.cells, by_cell.labels) == expected


def test_batch_seeding_rejects_invalid_rows_before_adding_any():
    ens = single_stump_ensemble()
    ps = PruneSet(ens)
    with pytest.raises(InputError):
        ps.add_points([[0.3], [np.nan]])
    with pytest.raises(InputError):
        ps.add_points([[0.3], [0.1, 0.2]])
    assert len(ps) == 0


def test_growth_checks_resolve_from_the_last_failing_check(monkeypatch):
    """The first check of each round is cold; every other one starts
    from the basis of the last failing check, only tightens its bounds,
    finishes without a cold fallback, and reaches a cold solve's
    optimum."""
    checks = []                 # (problem, start, solution, cold solves)
    cold_solves = []
    plain_lp = pruner.solve_lp
    cold = solver._simplex_solve

    def recorded(problem, start=None):
        before = len(cold_solves)
        sol = plain_lp(problem, start=start)
        if problem.maximize:
            checks.append((problem, start, sol, len(cold_solves) - before))
        return sol

    def counted(*args):
        cold_solves.append(args)
        return cold(*args)

    monkeypatch.setattr(pruner, "solve_lp", recorded)
    monkeypatch.setattr(solver, "_simplex_solve", counted)
    cases = l0_cases()
    for ens, data in filter(None, map(random_boosted_instance, range(30))):
        ps = PruneSet(ens)
        ps.add_points(data.X)
        cases.append((ens, ps))
    grown = 0
    for ens, ps in cases:
        checks.clear()
        try:
            prune_l0(ens, ps)
        except TiedPredictionError:
            continue
        failing = None
        for problem, start, sol, went_cold in checks:
            if start is None:           # the first check of a round
                failing = None
            else:
                assert failing is not None and start is failing[1].basis
                assert np.all(problem.upper <= failing[0].upper)
                assert not went_cold
                assert sol.objective == pytest.approx(
                    plain_lp(problem).objective, abs=1e-9)
                grown += 1
            if sol.objective > 0.5:
                failing = (problem, sol)
    assert grown >= 200


def test_masters_resolve_from_the_last_root_round_after_round(monkeypatch):
    """The working set grows in three steps, each pruned: only the first
    master of the set is solved cold; every later one,
    within a call and across calls, starts from the root basis of the
    master before it and never goes cold.  Each call's support is as
    small as subset search finds."""
    masters = []                # (start, solution, cold solves)
    cold_solves = []
    cold = solver._simplex_solve

    def master(problem, start=None):
        before = len(cold_solves)
        sol = solve_milp(problem, start=start)
        masters.append((start, sol, len(cold_solves) - before))
        return sol

    monkeypatch.setattr(solver, "_simplex_solve",
                        lambda *a: cold_solves.append(a) or cold(*a))
    checked = warm = 0
    for ens, full in l0_cases():
        if ens.num_trees > 8:
            continue
        grown = PruneSet(ens)
        masters.clear()
        try:
            for step in (1, 2, 3):
                grown.add_cells(full.cells[len(grown):len(full) * step // 3])
                before = len(masters)
                result = prune_l0(ens, grown, solve=master)
                assert result.masters == len(masters) - before
                assert result.warm_masters == result.masters - (step == 1)
                assert len(result.support) == brute_force_min_support(
                    ens, grown)
        except TiedPredictionError:
            continue
        (start, previous, went_cold), *later = masters
        assert start is None and went_cold >= 1
        for start, sol, went_cold in later:
            assert start is previous.root_basis
            assert sol.warm_root and not went_cold
            previous = sol
            warm += 1
        checked += 1
    assert checked >= 30
    assert warm >= 70


def test_tie_and_zero_tolerances_include_their_boundary():
    # one stump of weight t has original margin exactly t on both cells
    for weight, tied in ((pruner.TIE_TOL, True), (2 * pruner.TIE_TOL, False)):
        ens = build_ensemble(
            num_classes=2, features=[{"name": "x0", "kind": "continuous"}],
            weights=[weight], raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1))])
        ps = PruneSet(ens)
        ps.add_points([[0.0], [1.0]])
        assert (build_margins(ens, ps) @ ens.alpha).min() == weight
        if tied:
            with pytest.raises(TiedPredictionError):
                prune_l1(ens, ps)
        else:
            assert prune_l1(ens, ps).support == (0,)
    assert support_of([pruner.ZERO_TOL, 2 * pruner.ZERO_TOL, 0.0]) == (1,)
