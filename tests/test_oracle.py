"""Separation MIP construction, solving, and cell extraction."""

import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from equiprune import (DEFAULT_EPSILON, InputError, IterationLimitError,
                       Oracle, ProblemTooLargeError, Solution, SolveStatus,
                       SolverFailureError, TiedPredictionError,
                       build_ensemble, build_separation, cell_center,
                       cell_scores_batch, cells_of, certified_prune, certify,
                       extract_cell, make_synthetic, maximize_separation,
                       predict_classes_batch, sample_uniform_points,
                       oracle, separate, solve_milp, solver,
                       train_random_forest)
from equiprune.ensemble import leaves_of
from equiprune.oracle import VIOLATION_TOL, SeparationResult
from conftest import (make_stump, mixed_model, one_hot, opposed_stumps,
                      stump_ensembles, three_voter_majority)
from test_ensemble import random_mixed_ensemble


def two_class(trees, weights, features=None):
    features = features or [{"name": "x1", "kind": "continuous"}]
    return build_ensemble(num_classes=2, features=features, weights=weights,
                          raw_trees=trees)


def chain_tree(first, second):
    """A split on x1 at ``first`` whose right child splits at ``second``:
    leaves of classes 0, 1, 0 from left to right."""
    return {"root": 0, "nodes": [
        {"id": 0, "kind": "split", "feature": 0, "threshold": first,
         "left": 1, "right": 2},
        {"id": 1, "kind": "leaf", "scores": [1, 0]},
        {"id": 2, "kind": "split", "feature": 0, "threshold": second,
         "left": 3, "right": 4},
        {"id": 3, "kind": "leaf", "scores": [0, 1]},
        {"id": 4, "kind": "leaf", "scores": [1, 0]}]}


def test_stump_program_shape():
    ens = two_class([make_stump(0, 0.5, (1, 0), (0, 1))], [1.0])
    prog = build_separation(ens, original=0)
    # the threshold indicator u and ``one``: the root's flow is one, its
    # children's one - u and u, so no flow has a column of its own
    assert prog.problem.c.tolist() == [0, 0]
    problem = prog.priced((1.0,), challenger=1)
    assert problem.var_names == ["mu_0_0", "one"]
    assert [cols.tolist() for cols in prog.blocks] == [[0]]
    assert prog.flows.tolist() == [[0, 1], [-1, 1], [1, 0]]
    assert prog.leaves.tolist() == [1, 2]
    assert (problem.lower.tolist(), problem.upper.tolist()) == ([0, 1],
                                                                [1, 1])
    assert problem.integer.tolist() == [True, True]
    # the gap score_1 - score_0 is -1 on the left leaf, 1 on the right
    assert problem.c.tolist() == [2, -1]
    # the program's one row; the pair's problem appends its floor, the
    # objective itself >= -VIOLATION_TOL
    assert prog.problem.row_names == ["margin_1"]
    assert problem.row_names == ["margin_1", "floor"]
    assert problem.A.tolist() == [[-2, 1], [2, -1]]
    assert (problem.senses.tolist(), problem.b.tolist()) == (
        [1, 1], [DEFAULT_EPSILON, -VIOLATION_TOL])


def test_deep_program_layout():
    ens = two_class([chain_tree(0.2, 0.8)], [1.0])
    prog = build_separation(ens, original=0)
    problem = prog.priced((1.0,), challenger=1)
    # flow columns for the two depth-2 leaves, then mu_0_0 (the root's
    # u) and mu_0_1 (node 2's v), then one
    assert problem.var_names == ["z_0_3", "z_0_4", "mu_0_0", "mu_0_1",
                                 "one"]
    assert prog.flows.tolist() == [[0, 0, 0, 0, 1], [0, 0, -1, 0, 1],
                                   [0, 0, 1, 0, 0], [1, 0, 0, 0, 0],
                                   [0, 1, 0, 0, 0]]
    assert problem.integer.tolist() == [False, False, True, True, True]
    rows = dict(zip(problem.row_names,
                    zip(problem.A.tolist(), problem.senses, problem.b)))
    assert list(rows) == ["children_0_2", "margin_1", "order_0_0",
                          "left_0_2", "right_0_2", "floor"]
    assert prog.problem.row_names == list(rows)[:-1]
    assert rows["children_0_2"] == ([1, 1, -1, 0, 0], 0, 0.0)  # z3+z4 = u
    assert rows["margin_1"] == ([-1, 1, -1, 0, 1], 1, DEFAULT_EPSILON)
    assert rows["order_0_0"] == ([0, 0, 1, -1, 0], 1, 0.0)
    assert rows["left_0_2"] == ([1, 0, 0, 1, 0], -1, 1.0)      # z3 <= 1-v
    assert rows["right_0_2"] == ([0, 1, 0, -1, 0], -1, 0.0)    # z4 <= v
    assert problem.c.tolist() == [1, -1, 1, 0, -1]
    assert rows["floor"] == ([1, -1, 1, 0, -1], 1, -VIOLATION_TOL)


def test_same_split_shares_one_indicator():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = two_class(trees, [1.0, 1.0])
    prog = build_separation(ens, original=0)
    assert len(prog.blocks[0]) == 1
    mu = prog.blocks[0][0]
    # both trees' children read their flows off the shared column
    assert np.count_nonzero(prog.flows[:, mu]) == 4


def test_three_class_pair_has_two_margin_rows():
    trees = [make_stump(0, 0.5, one_hot(0, 3), one_hot(1, 3)),
             make_stump(0, 0.5, one_hot(2, 3), one_hot(0, 3))]
    ens = build_ensemble(num_classes=3,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    prog = build_separation(ens, original=0)
    names = prog.problem.row_names
    margin_rows = [i for i, n in enumerate(names) if n.startswith("margin")]
    assert [names[i] for i in margin_rows] == ["margin_1", "margin_2"]
    # a column of leaf coefficients per margin row
    assert np.array_equal(prog.margin.T @ prog.flows[prog.leaves],
                          prog.problem.A[margin_rows])


def test_original_weights_separate_nothing():
    for seed, ens in stump_ensembles(1100, 10):
        result = separate(Oracle(ens), ens.alpha)
        assert result.is_empty
        assert not result.tie_cells
        for pair in result.pairs:
            if pair.status == SolveStatus.OPTIMAL:
                assert pair.objective < 0.0


def test_bad_epsilon_and_original_class_are_input_errors():
    ens = two_class([make_stump(0, 0.5, (1, 0), (0, 1))], [1.0])
    for epsilon in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="epsilon"):
            build_separation(ens, original=0, epsilon=epsilon)
    for original in (-1, 2, 0.5, True):
        with pytest.raises(InputError, match="original class"):
            build_separation(ens, original)


def test_separation_stops_at_the_node_limit(monkeypatch):
    # under the third stump alone both pairs reach their floor, and one
    # only after branching
    ens = three_voter_majority()
    w = (0.0, 0.0, 1.0)
    assert max(p.nodes for p in separate(Oracle(ens), w).pairs) >= 1
    monkeypatch.setattr(solver, "_MAX_NODES", 0)
    with pytest.raises(IterationLimitError, match="node limit"):
        separate(Oracle(ens), w)


def test_dropped_tree_disagreement_is_found():
    # original: tree 0 (weight 2) dominates; keeping only tree 1 flips
    # every cell where the two disagree
    trees = [make_stump(0, 0.3, (1, 0), (0, 1)),
             make_stump(0, 0.7, (0, 1), (1, 0))]
    ens = two_class(trees, [2.0, 1.0])
    w = (0.0, 1.0)
    result = separate(Oracle(ens), w)
    assert not result.is_empty
    points = [cell_center(ens.schema, cell) for cell in result.cells]
    assert np.all(predict_classes_batch(ens, w, points)
                  != predict_classes_batch(ens, ens.alpha, points))
    # the disagreeing cells are exactly where brute force sees them
    assert set(result.cells) <= {(0,), (2,)}


def test_objective_matches_brute_force():
    rng = np.random.default_rng(21)
    for seed, ens in stump_ensembles(1200, 25):
        w = np.array(ens.alpha) * rng.uniform(0.3, 1.5, size=ens.num_trees)
        w[rng.random(ens.num_trees) < 0.4] = 0.0
        if not w.any():
            w = np.array(ens.alpha)
        result = separate(Oracle(ens), w)
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
                # empty exactly when no cell reaches the floor
                if pair.status == SolveStatus.INFEASIBLE:
                    assert best is None or best < -VIOLATION_TOL
                else:
                    assert best >= -VIOLATION_TOL
                    assert best == pytest.approx(pair.objective, abs=1e-6)
                    assert (pair.objective > 1e-8) == (best > 1e-8)


def test_objective_shrinks_as_epsilon_grows():
    rng = np.random.default_rng(22)
    for seed, ens in stump_ensembles(1300, 15):
        w = np.array(ens.alpha) * rng.uniform(0.2, 1.2, size=ens.num_trees)
        small = separate(Oracle(ens, 1e-6), w)
        large = separate(Oracle(ens, 0.5), w)
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


def route(ens, cell):
    """The flat nodes on every tree's path to its leaf for ``cell``."""
    flat = ens.flat
    nodes = []
    for node, leaf in zip(flat.roots, leaves_of(ens, [cell])[0]):
        nodes.append(node)
        while node != leaf:
            left = flat.left[node]
            node = left if leaf in _subtree(flat, left) else flat.right[node]
            nodes.append(node)
    return nodes


def fake_solution(ens, prog, cell):
    """Unit flows along each tree's routing path for ``cell``, plus the
    matching indicator assignment and ``one`` -- a hand-built Optimal
    solution."""
    x = np.zeros(len(prog.problem.c))
    x[prog.problem.var_names.index("one")] = 1.0
    for cols, categorical, k in zip(prog.blocks, prog.categorical, cell):
        x[cols[k] if categorical else cols[:k]] = 1.0
    flow_cols = ~prog.problem.integer
    for node in route(ens, cell):
        x[(prog.flows[node] != 0) & flow_cols] = 1.0
    return Solution(status=SolveStatus.OPTIMAL, x=x, objective=0.0,
                    nodes=1, iterations=0)


def _subtree(flat, root):
    out, stack = set(), [root]
    while stack:
        v = stack.pop()
        out.add(v)
        if flat.left[v] != v:
            stack.extend((flat.left[v], flat.right[v]))
    return out


def test_extraction_reads_indicators():
    ens = cat_ensemble()
    prog = build_separation(ens, original=0)
    # continuous cell 1 of thresholds {0.2}: above the only threshold;
    # category level 2 takes the categorical tree's right branch
    cell, scores = extract_cell(prog, fake_solution(ens, prog, (1, 2)))
    assert cell == (1, 2)
    assert scores.tolist() == [[0.0, 1.0], [0.0, 1.0]]


def test_extraction_pads_below_first_threshold():
    ens = cat_ensemble()
    prog = build_separation(ens, original=0)
    cell, scores = extract_cell(prog, fake_solution(ens, prog, (0, 0)))
    assert cell == (0, 0)
    assert scores.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    point = cell_center(ens.schema, cell)
    assert point[0] == pytest.approx(0.2 - 1.0)
    assert cells_of(ens.schema, [point]).tolist() == [list(cell)]


def test_extraction_between_thresholds():
    trees = [make_stump(0, 0.2, (1, 0), (0, 1)),
             make_stump(0, 0.8, (1, 0), (0, 1))]
    ens = two_class(trees, [1.0, 1.0])
    prog = build_separation(ens, original=0)
    cell, scores = extract_cell(prog, fake_solution(ens, prog, (1,)))
    assert cell == (1,)
    assert scores.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_extraction_refuses_a_flow_that_disagrees_with_the_cell():
    # the indicators spell cell (2,) but the depth-2 flows follow cell
    # (1,): the solution is inconsistent, a solver fault
    ens = two_class([chain_tree(0.2, 0.8)], [1.0])
    prog = build_separation(ens, original=0)
    x = fake_solution(ens, prog, (1,)).x
    x[prog.blocks[0]] = fake_solution(ens, prog, (2,)).x[prog.blocks[0]]
    sol = Solution(status=SolveStatus.OPTIMAL, x=x, objective=0.0,
                   nodes=1, iterations=0)
    with pytest.raises(SolverFailureError, match="no flow there"):
        extract_cell(prog, sol)


def _structural_rows_hold(problem, x):
    """Every row but the margin rows (which depend on the cell's scores)
    holds at ``x``."""
    lhs = problem.A @ x
    for i, name in enumerate(problem.row_names):
        if name.startswith("margin_"):
            continue
        sense, b = problem.senses[i], problem.b[i]
        if not (lhs[i] <= b + 1e-12 if sense < 0 else
                lhs[i] >= b - 1e-12 if sense > 0 else
                abs(lhs[i] - b) <= 1e-12):
            return False
    return True


def test_indicator_layout_over_every_cell():
    # For every cell: unit flows along its routes plus its indicator
    # values meet every flow, order, one-hot and left/right row, the
    # flows read 1 exactly on the routes, extract_cell reads the cell
    # back, and the no-good row of cut_off(cell) is violated by that
    # cell's values alone.
    rng = np.random.default_rng(43)
    kinds = set()
    for _ in range(40):
        ens = random_mixed_ensemble(rng)
        y = int(rng.integers(ens.num_classes))
        prog = build_separation(ens, y)
        cells = list(itertools.product(
            *(range(kind.num_cells) for kind in ens.schema.features)))
        sols = [fake_solution(ens, prog, cell) for cell in cells]
        X = np.array([sol.x for sol in sols]).T
        for k, (cell, sol) in enumerate(zip(cells, sols)):
            assert _structural_rows_hold(prog.problem, sol.x)
            on_route = np.zeros(len(prog.flows))
            on_route[route(ens, cell)] = 1.0
            assert np.array_equal(prog.flows @ sol.x, on_route)
            assert extract_cell(prog, sol)[0] == cell
            cut = prog.cut_off(cell).problem
            met = cut.A[-1] @ X >= cut.b[-1] - 1e-12
            assert not met[k] and met.sum() == len(cells) - 1
        kinds.update(kind.kind for kind in ens.schema.features)
    assert kinds == {"continuous", "binary", "categorical"}


def test_build_separation_refuses_an_oversized_program_before_allocating(
        monkeypatch):
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 30, max_depth=3, seed=0)
    problem = build_separation(ens, 0).problem
    m, n = problem.A.shape
    monkeypatch.setattr(solver, "_MAX_DENSE_BYTES", 8 * m * (n + m) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLargeError, match=f"{m} rows"):
            build_separation(ens, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * m * n             # half of A


def test_dumps_one_lp_file_per_ordered_pair(tmp_path):
    ens = mixed_model()
    kinds = [kind.kind for kind in ens.schema.features]
    assert kinds == ["continuous", "binary", "categorical"]
    separate(Oracle(ens), ens.alpha, dump_dir=tmp_path)
    C = ens.num_classes
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"sep_y{y}_c{c}.lp" for y in range(C) for c in range(C) if c != y)
    for path in tmp_path.iterdir():
        text = path.read_text()
        for column in (r"z_\d+_\d+", r"mu_0_\d+", r"b_1", r"nu_2_\d+"):
            assert re.search(rf"\b{column}\b", text), (path.name, column)
        for row in ("children_", "margin_", "onehot_", "left_",
                    "right_"):
            assert re.search(rf"^ {row}\S*:", text, re.M), (path.name, row)


def test_one_verdict_rule_at_the_violation_tolerance(monkeypatch):
    # exact binary fractions: a gap of exactly VIOLATION_TOL, or exactly
    # -VIOLATION_TOL, is a tie; 2**-30 beyond either is a violation or
    # nothing; a cell filed once stays where it was filed
    monkeypatch.setattr(oracle, "VIOLATION_TOL", 0.25)
    result = SeparationResult(pairs=[])
    for k, gap in enumerate((0.25 + 2**-30, 0.25, -0.25, -0.25 - 2**-30)):
        assert result.add((k,), gap) == (k == 0)
    assert result.add((1,), 1.0)
    assert result.cells == [(0,)]
    assert result.tie_cells == [(1,), (2,)]


def test_a_pair_below_its_floor_is_empty(monkeypatch):
    # exact binary fractions: on both cells of the opposed stumps the
    # best gap is 0.75 - 1 = -0.25 under (1, 0.75), a tie at the floor,
    # and 0.5 - 1 = -0.5 under (1, 0.5), below it
    monkeypatch.setattr(oracle, "VIOLATION_TOL", 0.25)
    ens = opposed_stumps(2.0)
    tie = separate(Oracle(ens), (1.0, 0.75))
    assert [p.status for p in tie.pairs] == [SolveStatus.OPTIMAL] * 2
    assert [p.objective for p in tie.pairs] == pytest.approx([-0.25] * 2)
    assert tie.cells == [] and set(tie.tie_cells) == {(0,), (1,)}
    empty = separate(Oracle(ens), (1.0, 0.5))
    assert [(p.status, p.objective, p.cell) for p in empty.pairs] == [
        (SolveStatus.INFEASIBLE, None, None)] * 2
    assert not (empty.cells or empty.tie_cells)


def test_screen_keeps_a_cell_at_margin_epsilon():
    # exact binary fractions: the original margin is 0.25 on both cells,
    # or 2**-30 less
    assert len(Oracle(opposed_stumps(1.25), epsilon=0.25).cells) == 2
    assert len(Oracle(opposed_stumps(1.25 - 2**-30), epsilon=0.25).cells) == 0


def test_exact_tie_lands_on_the_tie_channel():
    # opposite-voting stumps: under w=(1,1) the scores dead-heat on both
    # cells while the original (2,1) weighting is strict everywhere
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = two_class(trees, [2.0, 1.0])
    result = separate(Oracle(ens), (1.0, 1.0))
    assert result.is_empty            # no strict violation anywhere
    assert set(result.tie_cells) == {(0,), (1,)}
    assert result.cells == []


def test_returned_cells_flip_the_prediction():
    rng = np.random.default_rng(23)
    for seed, ens in stump_ensembles(1400, 20):
        w = np.array(ens.alpha) * rng.uniform(0.0, 1.5, size=ens.num_trees)
        w[rng.random(ens.num_trees) < 0.5] = 0.0
        if not w.any():
            continue
        result = separate(Oracle(ens), w)
        points = [cell_center(ens.schema, cell) for cell in result.cells]
        assert np.all(predict_classes_batch(ens, w, points)
                      != predict_classes_batch(ens, ens.alpha, points))
        for pair in result.pairs:
            if pair.cell is not None and pair.objective > 1e-8:
                scores = cell_scores_batch(ens, w, [pair.cell])[0]
                assert scores[pair.challenger] > scores[pair.original]


def test_a_cell_below_the_margin_is_cut_off_and_resolved():
    # On this 10-tree forest a pair MIP's optimum often lands on a cell
    # where the original scores tie 5:5: the margin row is met only
    # through flow and indicator values inside the solver's tolerances.
    # Each such cell is cut off by a no-good row that the class's
    # program keeps, and the pair re-solves to the exhaustive optimum
    # over cells with margin >= epsilon.  A pair with no cell at or
    # above its floor is empty; one whose optimum lies below the floor
    # within the solver's tolerances returns no cell and is not
    # rechecked: the true one lies below it.  A no-good row carries its
    # constant on ``one``, so every right-hand side of a class program
    # stays within 1 in magnitude: the solver's check tolerance grows
    # with the largest.
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 10, max_depth=3, seed=0)
    rng = np.random.default_rng(0)
    cut = 0
    for _ in range(30):
        w = rng.random(10) * (rng.random(10) < 0.5)
        oracle = Oracle(ens)
        result = separate(oracle, w)
        for pair in result.pairs:
            best, _ = maximize_separation(ens, w, pair.challenger,
                                          pair.original, DEFAULT_EPSILON)
            if pair.cell is None:
                assert best is None or best < -VIOLATION_TOL
                if pair.status == SolveStatus.OPTIMAL:
                    assert best <= pair.objective + 1e-6
                    assert pair.objective < -VIOLATION_TOL
            else:
                assert best == pytest.approx(pair.objective, abs=1e-6)
                scores = cell_scores_batch(ens, ens.alpha, [pair.cell])[0]
                assert scores[pair.original] - scores[
                    pair.challenger] >= DEFAULT_EPSILON
        cuts = 0
        for y, program in oracle.programs.items():
            problem = program.problem
            fresh = build_separation(ens, y).problem
            cuts += problem.num_rows - fresh.num_rows
            assert problem.row_names[fresh.num_rows:] == [
                name for name in problem.row_names if name.startswith("cut_")]
            for row, b in zip(problem.A[fresh.num_rows:],
                              problem.b[fresh.num_rows:]):
                assert b == 1.0
                assert row[problem.var_names.index("one")] == np.sum(row < 0)
            assert np.abs(problem.b).max() == 1.0
        assert cuts == sum(pair.cuts for pair in result.pairs)
        cut += cuts
    assert cut >= 5


def test_dump_dir_holds_every_re_solve_after_a_cut(tmp_path):
    # the forest above: each pair leaves its first problem and the
    # problem of each re-solve after a cut, and the last one written is
    # the problem whose rows the pair reports
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 10, max_depth=3, seed=0)
    rng = np.random.default_rng(0)
    cut = 0
    for call in range(30):
        w = rng.random(10) * (rng.random(10) < 0.5)
        out = tmp_path / str(call)
        out.mkdir()
        result = separate(Oracle(ens), w, dump_dir=out)
        assert len(list(out.iterdir())) == sum(
            1 + pair.cuts for pair in result.pairs)
        for pair in result.pairs:
            stem = f"sep_y{pair.original}_c{pair.challenger}"
            names = [f"{stem}.lp"] + [f"{stem}_cut{k}.lp"
                                      for k in range(1, pair.cuts + 1)]
            assert all((out / name).exists() for name in names)
            text = (out / names[-1]).read_text()
            rows = text.split("Subject To\n")[1].split("Bounds\n")[0]
            assert len(rows.splitlines()) == pair.rows
            cut += pair.cuts
    assert cut >= 5


def test_held_programs_keep_their_cuts_for_the_next_round():
    # the forest above: a second call on the same oracle under the same
    # weights prices the programs the first call cut, so where the first
    # cut a cell the second cuts nothing, and every pair keeps its
    # verdict, optimum and cell
    data = make_synthetic("blobs", n=24, seed=7)
    ens = train_random_forest(data, 10, max_depth=3, seed=0)
    rng = np.random.default_rng(0)
    cut_draws = 0
    for _ in range(30):
        w = rng.random(10) * (rng.random(10) < 0.5)
        oracle = Oracle(ens)
        first = separate(oracle, w)
        second = separate(oracle, w)
        if any(pair.cuts for pair in first.pairs):
            cut_draws += 1
            assert not any(pair.cuts for pair in second.pairs)
        for ours, again in zip(first.pairs, second.pairs):
            assert (ours.status, ours.cell) == (again.status, again.cell)
            if ours.objective is None:
                assert again.objective is None
            else:
                assert again.objective == pytest.approx(ours.objective,
                                                        abs=1e-9)
    assert cut_draws >= 10


def test_a_cell_of_another_class_is_a_solver_failure():
    # The stub answers every pair with a class-1 cell, which the
    # original weights give to class 1 by at least 1: for original
    # class 0 that misses the margin far beyond the solver's
    # tolerances, so it is a fault to raise, not a cell to cut off.
    # The third stump alone prefers class 0 on such a cell.
    ens = three_voter_majority()
    sol = solve_milp(build_separation(ens, 1).priced((0.0, 0.0, 1.0), 0))
    assert sol.status == SolveStatus.OPTIMAL

    def stub(problem, start=None):
        return replace(sol, objective=1.0)

    with pytest.raises(SolverFailureError, match="original margin"):
        separate(Oracle(ens), ens.alpha, solve=stub)


def test_a_cell_without_a_positive_gap_is_a_solver_failure():
    # The stub answers pair (1, 0) under the original weights with the
    # best class-0 cell of that pair under the third stump alone, and
    # claims a positive optimum there; the original weights let the
    # challenger lose on every class-0 cell, so direct evaluation of
    # the cell's score rows must refuse it.
    ens = three_voter_majority()
    sol = solve_milp(build_separation(ens, 0).priced((0.0, 0.0, 1.0), 1))
    assert sol.status == SolveStatus.OPTIMAL

    def stub(problem, start=None):
        return replace(sol, objective=1.0)

    with pytest.raises(SolverFailureError, match="positive reweighted gap"):
        separate(Oracle(ens), ens.alpha, solve=stub)


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
        for pair in separate(Oracle(ens), w).pairs:
            best, _ = maximize_separation(ens, w, pair.challenger,
                                          pair.original, DEFAULT_EPSILON)
            # empty exactly when no cell reaches the floor
            if pair.status == SolveStatus.INFEASIBLE:
                assert best is None or best < -VIOLATION_TOL
            else:
                assert best >= -VIOLATION_TOL
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


PROBLEM_ARRAYS = ("c", "A", "senses", "b", "lower", "upper", "integer")


def test_reused_programs_equal_fresh_builds():
    """Over three rounds on one ``Oracle``, which holds one program per
    original class, every problem handed to ``solve`` equals a fresh
    build of its pair, its optimum equals that of a fresh oracle's, and
    every pair after the first of its class starts from the root basis
    of the pair before it, also on a fresh oracle and when that pair had
    no cell at or above its floor.  A class's first pair starts from the
    class's last root when it holds one, and otherwise from the root of
    the pair solved before it in the same call (cold only for a fresh
    oracle's first pair)."""
    rng = np.random.default_rng(42)
    handed_out = []                     # (problem, copies of its arrays)
    calls = []                          # (start or None, root basis)

    def capture(problem, **kwargs):
        handed_out.append((problem, [getattr(problem, f).copy()
                                     for f in PROBLEM_ARRAYS]))
        return record(problem, **kwargs)

    def record(problem, **kwargs):
        sol = solve_milp(problem, **kwargs)
        calls.append((kwargs.get("start"), sol.basis, sol))
        return sol

    ensembles = multi_class = starts = within_round = local_starts = 0
    after_empty = 0                     # starts from a root proven empty
    across_classes = 0                  # first pairs started from another
                                        # class's root
    while multi_class < 12:
        ens = random_mixed_ensemble(rng)
        ensembles += 1
        multi_class += ens.num_classes >= 3
        oracle = Oracle(ens)
        last_basis = {}                 # original class -> its last root
        last_status = {}                # and its last pair's status
        for _round in range(3):
            w = random_reweighting(ens, rng)
            calls.clear()
            reused = separate(oracle, w, solve=capture)
            assert set(oracle.programs) == set(range(ens.num_classes))
            fresh = handed_out[-len(reused.pairs):]
            previous = None             # the root of the call's last pair
            for pair, (problem, _), (start, root, sol) in zip(
                    reused.pairs, fresh, calls):
                c, y = pair.challenger, pair.original
                built = build_separation(ens, y).priced(w, c)
                for f in PROBLEM_ARRAYS:
                    assert np.array_equal(getattr(problem, f),
                                          getattr(built, f))
                # the start is the class's last root basis, from the pair
                # before in this round or the class's last pair before;
                # without one, the root of the pair before in this call
                held = last_basis.get(y)
                assert start is (previous if held is None else held)
                across_classes += held is None and start is not None
                # every root passes its basis on, a root proven empty
                # too, unless a cold solve found it empty
                assert root is not None or (
                    pair.status == SolveStatus.INFEASIBLE
                    and not sol.warm)
                starts += start is not None
                first_of_class = c == (1 if y == 0 else 0)
                within_round += start is not None and not first_of_class
                after_empty += (start is not None
                                and last_status.get(y)
                                == SolveStatus.INFEASIBLE)
                last_basis[y] = previous = root
                last_status[y] = pair.status
            # on a fresh oracle every pair but the call's first starts
            # from the root of the pair before it, and the roots held
            # across rounds find the same optima
            calls.clear()
            local = separate(Oracle(ens), w, solve=record)
            for k, (ours, pair) in enumerate(zip(reused.pairs, local.pairs)):
                assert calls[k][0] is (calls[k - 1][1] if k else None)
                local_starts += k > 0
                assert ours.status == pair.status
                if pair.objective is not None:
                    assert ours.objective == pytest.approx(pair.objective,
                                                           abs=1e-9)
    # no problem handed out in an earlier round changed later
    for problem, arrays in handed_out:
        for f, before in zip(PROBLEM_ARRAYS, arrays):
            assert np.array_equal(getattr(problem, f), before)
    assert ensembles > multi_class
    assert starts >= 150
    assert within_round >= 100         # later challengers, same round
    assert local_starts >= 100
    assert after_empty >= 50
    assert across_classes >= 20


def test_screen_proposes_only_what_the_oracle_accepts():
    # every proposed cell lies inside the margin rows' scope and carries
    # the verdict direct evaluation gives it; when exhaustive search
    # finds no pair above -VIOLATION_TOL, the screen finds nothing either
    rng = np.random.default_rng(23)
    proposed = quiet = 0
    for _, ens in stump_ensembles(2300, 20):
        screen = Oracle(ens, DEFAULT_EPSILON)
        original = screen.refute(ens.alpha)
        assert not (original.cells or original.tie_cells)
        C = ens.num_classes
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, ens.num_trees)
            w[rng.random(ens.num_trees) < 0.4] = 0.0
            result = screen.refute(w)
            assert result.pairs == []
            found = result.cells + result.tie_cells
            assert len(set(found)) == len(found)
            proposed += len(found)
            befores = cell_scores_batch(ens, ens.alpha, found)
            afters = cell_scores_batch(ens, w, found)
            for cell, before, after in zip(found, befores, afters):
                top, second = np.sort(before)[[-1, -2]]
                assert top - second >= DEFAULT_EPSILON
                y = int(np.argmax(before))
                gap = max(after[c] - after[y] for c in range(C) if c != y)
                if cell in result.cells:
                    assert gap > VIOLATION_TOL
                else:
                    assert gap >= -VIOLATION_TOL
            best = [maximize_separation(ens, w, c, y, DEFAULT_EPSILON)[0]
                    for y in range(C) for c in range(C) if c != y]
            if all(b is None or b < -VIOLATION_TOL for b in best):
                quiet += 1
                assert not found
    assert proposed >= 20 and quiet >= 5


def test_screen_refuses_bad_input(three_stumps):
    with pytest.raises(InputError, match="epsilon"):
        Oracle(three_stumps, 0.0)
    screen = Oracle(three_stumps)
    with pytest.raises(InputError):
        screen.refute((1.0, 1.0))
