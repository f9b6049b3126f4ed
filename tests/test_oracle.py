"""Separation MIP construction, solving, and point extraction."""

import numpy as np
import pytest

from equiprune import (DEFAULT_EPSILON, MilpSolution, SolveStatus,
                       SolverOptions, TiedPredictionError, build_ensemble,
                       build_separation, cell_of, certified_prune, certify,
                       extract_point, maximize_separation, predict_class,
                       predict_scores, sample_uniform_points, separate,
                       solve_milp, solver)
from equiprune.ensemble import leaves_of
from conftest import make_stump, one_hot, stump_ensembles
from test_ensemble import random_mixed_ensemble


def two_class(trees, weights, features=None):
    features = features or [{"name": "x1", "kind": "continuous"}]
    return build_ensemble(num_classes=2, features=features, weights=weights,
                          raw_trees=trees)


def test_stump_program_shape():
    ens = two_class([make_stump(0, 0.5, (1, 0), (0, 1))], [1.0])
    prog = build_separation(ens, (1.0,), challenger=1, original=0)
    assert len(prog.flow[0]) == 3        # root + two leaves
    assert len(prog.threshold[0]) == 1   # one split threshold
    assert prog.problem.c.shape == (4,)


def test_same_split_shares_one_indicator():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = two_class(trees, [1.0, 1.0])
    prog = build_separation(ens, (1.0, 1.0), challenger=1, original=0)
    assert len(prog.threshold[0]) == 1
    mu = prog.threshold[0][0]
    rows_touching_mu = [name for row, name
                        in zip(prog.problem.A, prog.problem.row_names)
                        if row[mu] != 0.0]
    # both trees' left/right consistency rows reference the shared column
    assert {"left_0_0", "right_0_0", "left_1_0", "right_1_0"} <= \
        set(rows_touching_mu)


def test_three_class_pair_has_two_margin_rows():
    trees = [make_stump(0, 0.5, one_hot(0, 3), one_hot(1, 3)),
             make_stump(0, 0.5, one_hot(2, 3), one_hot(0, 3))]
    ens = build_ensemble(num_classes=3,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    prog = build_separation(ens, (1.0, 1.0), challenger=2, original=0)
    margin_rows = [n for n in prog.problem.row_names if n.startswith("margin")]
    assert margin_rows == ["margin_1", "margin_2"]


def test_original_weights_separate_nothing():
    for seed, ens in stump_ensembles(1100, 10):
        result = separate(ens, ens.alpha)
        assert result.is_empty
        assert not result.tie_cells
        for pair in result.pairs:
            if pair.status == SolveStatus.OPTIMAL:
                assert pair.objective < 0.0


def test_dropped_tree_disagreement_is_found():
    # original: tree 0 (weight 2) dominates; keeping only tree 1 flips
    # every cell where the two disagree
    trees = [make_stump(0, 0.3, (1, 0), (0, 1)),
             make_stump(0, 0.7, (0, 1), (1, 0))]
    ens = two_class(trees, [2.0, 1.0])
    w = (0.0, 1.0)
    result = separate(ens, w)
    assert not result.is_empty
    for point in result.points:
        assert predict_class(ens, w, point) != predict_class(ens, ens.alpha,
                                                             point)
    # the disagreeing cells are exactly where brute force sees them
    assert set(result.cells) <= {(0,), (2,)}


def test_objective_matches_brute_force():
    rng = np.random.default_rng(21)
    for seed, ens in stump_ensembles(1200, 25):
        w = np.array(ens.alpha) * rng.uniform(0.3, 1.5, size=ens.num_trees)
        w[rng.random(ens.num_trees) < 0.4] = 0.0
        if not w.any():
            w = np.array(ens.alpha)
        result = separate(ens, w)
        C = ens.num_classes
        k = 0
        for y in range(C):
            for c in range(C):
                if c == y:
                    continue
                pair = result.pairs[k]
                k += 1
                assert (pair.challenger, pair.original) == (c, y)
                best, cell = maximize_separation(ens, w, c, y,
                                                 epsilon=1e-6)
                if pair.status == SolveStatus.INFEASIBLE:
                    assert best is None
                else:
                    assert best == pytest.approx(pair.objective, abs=1e-6)
                    assert (pair.objective > 1e-8) == (best > 1e-8)


def test_objective_shrinks_as_epsilon_grows():
    rng = np.random.default_rng(22)
    for seed, ens in stump_ensembles(1300, 15):
        w = np.array(ens.alpha) * rng.uniform(0.2, 1.2, size=ens.num_trees)
        small = separate(ens, w, epsilon=1e-6)
        large = separate(ens, w, epsilon=0.5)
        for ps, pl in zip(small.pairs, large.pairs):
            if ps.status == SolveStatus.INFEASIBLE:
                assert pl.status == SolveStatus.INFEASIBLE
            elif pl.status == SolveStatus.OPTIMAL:
                assert pl.objective <= ps.objective + 1e-9


def cat_ensemble():
    """One continuous stump plus one categorical split (3 levels)."""
    trees = [make_stump(0, 0.2, (1, 0), (0, 1)),
             {"root": 0, "nodes": [
                 {"id": 0, "kind": "split", "feature": 1, "category": 2,
                  "left": 1, "right": 2},
                 {"id": 1, "kind": "leaf", "scores": [1, 0]},
                 {"id": 2, "kind": "leaf", "scores": [0, 1]}]}]
    return build_ensemble(
        num_classes=2,
        features=[{"name": "x1", "kind": "continuous"},
                  {"name": "x2", "kind": "categorical", "levels": 3}],
        weights=[1.0, 1.0], raw_trees=trees)


def fake_solution(ens, prog, cell):
    """Unit flows along each tree's routing path for ``cell``, plus the
    matching indicator assignment -- a hand-built Optimal solution."""
    from equiprune import cell_center
    x = np.zeros(len(prog.problem.c))
    point = cell_center(ens.schema, cell)
    for j, cols in prog.threshold.items():
        for r in range(cell[j]):
            x[cols[r]] = 1.0
    for j, col in prog.bit.items():
        x[col] = float(cell[j])
    for j, cols in prog.level.items():
        x[cols[cell[j]]] = 1.0
    leaves = ens.flat.node_id[leaves_of(ens, [cell])[0]]
    for m, tree in enumerate(ens.trees):
        node_id = tree.root
        while True:
            x[prog.flow[m][node_id]] = 1.0
            node = tree.nodes[node_id]
            if not hasattr(node, "left"):
                break
            node_id = node.left if leaves[m] in _subtree(
                tree, node.left) else node.right
    return MilpSolution(status=SolveStatus.OPTIMAL, x=x, objective=0.0,
                        best_bound=0.0, nodes=1, iterations=0)


def _subtree(tree, root):
    out, stack = set(), [root]
    while stack:
        v = stack.pop()
        out.add(v)
        node = tree.nodes[v]
        if hasattr(node, "left"):
            stack.extend((node.left, node.right))
    return out


def test_extraction_reads_indicators():
    ens = cat_ensemble()
    prog = build_separation(ens, (1.0, 1.0), challenger=1, original=0)
    # continuous cell 1 of thresholds {0.2}: above the only threshold
    point, cell = extract_point(ens, prog, fake_solution(ens, prog, (1, 2)))
    assert cell == (1, 2)
    assert point == (1.2, 2.0)  # above-last pad, category level 2


def test_extraction_pads_below_first_threshold():
    ens = cat_ensemble()
    prog = build_separation(ens, (1.0, 1.0), challenger=1, original=0)
    point, cell = extract_point(ens, prog, fake_solution(ens, prog, (0, 0)))
    assert cell == (0, 0)
    assert point[0] == pytest.approx(0.2 - 1.0)
    assert cell_of(ens.schema, point) == cell


def test_extraction_midpoint_between_thresholds():
    trees = [make_stump(0, 0.2, (1, 0), (0, 1)),
             make_stump(0, 0.8, (1, 0), (0, 1))]
    ens = two_class(trees, [1.0, 1.0])
    prog = build_separation(ens, (1.0, 1.0), challenger=1, original=0)
    point, cell = extract_point(ens, prog, fake_solution(ens, prog, (1,)))
    assert cell == (1,)
    assert point == (0.5,)


def test_exact_tie_lands_on_the_tie_channel():
    # opposite-voting stumps: under w=(1,1) the scores dead-heat on both
    # cells while the original (2,1) weighting is strict everywhere
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = two_class(trees, [2.0, 1.0])
    result = separate(ens, (1.0, 1.0))
    assert result.is_empty            # no strict violation anywhere
    assert set(result.tie_cells) == {(0,), (1,)}
    assert result.points == []


def test_returned_points_flip_the_prediction():
    rng = np.random.default_rng(23)
    for seed, ens in stump_ensembles(1400, 20):
        w = np.array(ens.alpha) * rng.uniform(0.0, 1.5, size=ens.num_trees)
        w[rng.random(ens.num_trees) < 0.5] = 0.0
        if not w.any():
            continue
        result = separate(ens, w)
        for point in result.points:
            assert predict_class(ens, w, point) != \
                predict_class(ens, ens.alpha, point)
        for pair in result.pairs:
            if pair.point is not None and pair.objective > 1e-8:
                scores = predict_scores(ens, w, pair.point)
                assert scores[pair.challenger] > scores[pair.original]


def random_reweighting(ens, rng):
    w = np.array(ens.alpha) * rng.uniform(0.0, 1.5, size=ens.num_trees)
    w[rng.random(ens.num_trees) < 0.4] = 0.0
    return w


def test_oracle_matches_enumeration_on_mixed_ensembles():
    # continuous, binary and categorical splits, depth <= 3, 2-4 classes
    rng = np.random.default_rng(41)
    multi_round = 0
    for _ in range(40):
        ens = random_mixed_ensemble(rng)
        w = random_reweighting(ens, rng)
        for pair in separate(ens, w).pairs:
            best, _ = maximize_separation(ens, w, pair.challenger,
                                          pair.original, DEFAULT_EPSILON)
            if pair.status == SolveStatus.INFEASIBLE:
                assert best is None
            else:
                assert best == pytest.approx(pair.objective, abs=1e-6)
                assert (pair.objective > 1e-8) == (best > 1e-8)
        try:
            outcome = certified_prune(ens, sample_uniform_points(ens.schema,
                                                                 2, rng))
        except TiedPredictionError:
            continue
        assert not certify(ens, outcome.weights,
                           DEFAULT_EPSILON).disagreement_cells
        multi_round += outcome.iterations > 1
    assert multi_round >= 10


def test_presolve_keeps_every_mixed_oracle_optimum():
    # every pair program of the 40 ensembles above, over two rounds with
    # warm roots, solved reduced and unreduced
    rng = np.random.default_rng(41)
    compared = shrunk = 0

    def both(problem, options, **kwargs):
        nonlocal compared, shrunk
        reduced = solve_milp(problem, options, **kwargs)
        plain = solver._branch_and_bound(problem, SolverOptions(), None)
        assert reduced.status == plain.status
        if plain.status == SolveStatus.OPTIMAL:
            assert reduced.objective == pytest.approx(plain.objective,
                                                      abs=1e-9)
        compared += 1
        shrunk += reduced.solved_cols < problem.num_vars
        return reduced

    for _ in range(40):
        ens = random_mixed_ensemble(rng)
        programs = {}
        for _round in range(2):
            separate(ens, random_reweighting(ens, rng), solve=both,
                     programs=programs)
    assert compared >= 300
    assert shrunk == compared


PROBLEM_ARRAYS = ("c", "A", "senses", "b", "lower", "upper", "integer")


def test_reused_programs_equal_fresh_builds():
    """Under one program per original class, every problem handed to
    ``solve`` equals a fresh build of its pair, its optimum equals a
    cold solve's, and every pair after the first of its class starts
    from the root basis of the pair before it."""
    rng = np.random.default_rng(42)
    handed_out = []                     # (problem, copies of its arrays)
    calls = []                          # (start or None, root basis)

    def capture(problem, options, **kwargs):
        handed_out.append((problem, [getattr(problem, f).copy()
                                     for f in PROBLEM_ARRAYS]))
        sol = solve_milp(problem, options, **kwargs)
        calls.append((kwargs.get("start"), sol.root_basis))
        return sol

    ensembles = multi_class = starts = within_round = 0
    while multi_class < 12:
        ens = random_mixed_ensemble(rng)
        ensembles += 1
        multi_class += ens.num_classes >= 3
        programs = {}
        last_basis = {}                 # original class -> its last root
        for _round in range(3):
            w = random_reweighting(ens, rng)
            calls.clear()
            reused = separate(ens, w, solve=capture, programs=programs)
            assert set(programs) == set(range(ens.num_classes))
            fresh = handed_out[-len(reused.pairs):]
            for pair, (problem, _), (start, root) in zip(reused.pairs, fresh,
                                                         calls):
                c, y = pair.challenger, pair.original
                built = build_separation(ens, w, c, y).problem
                for f in PROBLEM_ARRAYS:
                    assert np.array_equal(getattr(problem, f),
                                          getattr(built, f))
                # the start is the class's last root basis, from the pair
                # before in this round or the class's last pair before
                assert start is last_basis.get(y)
                # only an empty class has no root basis to pass on
                assert (start is not None or y not in last_basis
                        or pair.status == SolveStatus.INFEASIBLE)
                starts += start is not None
                first_of_class = c == (1 if y == 0 else 0)
                within_round += start is not None and not first_of_class
                last_basis[y] = root
            # warm roots find the optima of cold ones
            for ours, cold in zip(reused.pairs, separate(ens, w).pairs):
                assert ours.status == cold.status
                if cold.objective is not None:
                    assert ours.objective == pytest.approx(cold.objective,
                                                           abs=1e-9)
    # no problem handed out in an earlier round changed later
    for problem, arrays in handed_out:
        for f, before in zip(PROBLEM_ARRAYS, arrays):
            assert np.array_equal(getattr(problem, f), before)
    assert ensembles > multi_class
    assert starts >= 150
    assert within_round >= 100         # later challengers, same round
