"""Bounded-variable simplex and branch-and-bound correctness.

The independent references here are exhaustive enumeration (every
binary assignment solved as an LP) and scipy.optimize.linprog and
milp, which are test-only dependencies.  Warm re-solves from a basis
are checked against cold solves of the same problem.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from equiprune import (ProblemBuilder, SolveStatus, SolverOptions, dump_lp,
                       lp_format_text, solve_lp, solve_milp, solver)


def test_single_bound_lp():
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, obj=1.0)
    pb.add_row([(x, 1.0)], ">=", 3.0)
    sol = solve_lp(pb.build())
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.x[x] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(3.0)


def test_two_var_lp():
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, obj=1.0)
    y = pb.add_var("y", lo=0.0, obj=1.0)
    pb.add_row([(x, 1.0), (y, 1.0)], ">=", 1.0)
    sol = solve_lp(pb.build())
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def test_contradictory_rows_infeasible():
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=10.0)
    pb.add_row([(x, 1.0)], ">=", 1.0)
    pb.add_row([(x, 1.0)], "<=", 0.0)
    sol = solve_lp(pb.build())
    assert sol.status == SolveStatus.INFEASIBLE
    assert sol.x is None


def test_unbounded_detected():
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, obj=-1.0)
    pb.add_row([(x, 1.0)], ">=", 1.0)
    sol = solve_lp(pb.build())
    assert sol.status == SolveStatus.UNBOUNDED


def test_forcing_constraint_mip():
    pb = ProblemBuilder()
    w = pb.add_var("w", lo=0.0, obj=0.0)
    u = pb.add_var("u", lo=0.0, up=1.0, obj=1.0, integer=True)
    pb.add_row([(w, 1.0), (u, -5.0)], "<=", 0.0)
    pb.add_row([(w, 1.0)], ">=", 1.0)
    sol = solve_milp(pb.build())
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.x[u] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_four_item_knapsack_matches_enumeration():
    values = [10.0, 13.0, 7.0, 11.0]
    sizes = [3.0, 4.0, 2.0, 3.0]
    cap = 7.0
    pb = ProblemBuilder()
    z = [pb.add_var(f"z{i}", lo=0.0, up=1.0, obj=values[i], integer=True)
         for i in range(4)]
    pb.add_row([(z[i], sizes[i]) for i in range(4)], "<=", cap)
    prob = pb.build()
    prob = type(prob)(**{**prob.__dict__, "maximize": True})
    sol = solve_milp(prob)
    assert sol.status == SolveStatus.OPTIMAL
    best = max(sum(v for v, s, keep in zip(values, sizes, pick) if keep)
               for pick in itertools.product((0, 1), repeat=4)
               if sum(s for v, s, keep in zip(values, sizes, pick) if keep)
               <= cap)
    assert sol.objective == pytest.approx(best)


def test_integral_relaxation_short_circuits():
    pb = ProblemBuilder()
    u = pb.add_var("u", lo=0.0, up=1.0, obj=1.0, integer=True)
    pb.add_row([(u, 1.0)], ">=", 1.0)
    prob = pb.build()
    relaxed = solve_lp(prob)
    mip = solve_milp(prob)
    assert mip.objective == pytest.approx(relaxed.objective)
    assert mip.nodes <= 1  # no branching needed


def random_lp(seed: int, n=6, m=5, integers=0, senses=("<=", ">=", "=="),
              anchored=False):
    """Random box-bounded problem.  With ``anchored`` the right-hand
    sides are placed relative to a random in-box point, so the problem
    is feasible by construction."""
    rng = np.random.default_rng(seed)
    pb = ProblemBuilder()
    idx, anchor = [], []
    for i in range(n):
        if i < integers:
            idx.append(pb.add_var(f"u{i}", lo=0.0, up=1.0,
                                  obj=float(rng.normal()), integer=True))
            anchor.append(float(rng.integers(0, 2)))
        else:
            up = float(rng.uniform(1.0, 5.0))
            idx.append(pb.add_var(f"x{i}", lo=0.0, up=up,
                                  obj=float(rng.normal())))
            anchor.append(float(rng.uniform(0.0, up)))
    for r in range(m):
        terms = [(j, float(rng.normal())) for j in idx
                 if rng.random() < 0.7]
        if not terms:
            terms = [(idx[0], 1.0)]
        sense = str(rng.choice(list(senses)))
        rhs = float(rng.uniform(-2.0, 2.0))
        if anchored:
            at = sum(v * anchor[j] for j, v in terms)
            slack = float(rng.uniform(0.0, 2.0))
            rhs = at + slack if sense == "<=" else at - slack
        pb.add_row(terms, sense, rhs)
    return pb.build()


def scipy_check(prob, sol):
    """Cross-check an LP solve against scipy.optimize.linprog."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(prob.A, prob.senses, prob.b):
        if sense < 0:  # <=
            A_ub.append(row), b_ub.append(rhs)
        elif sense > 0:  # >=
            A_ub.append(-row), b_ub.append(-rhs)
        else:
            A_eq.append(row), b_eq.append(rhs)
    ref = linprog(c=prob.c,
                  A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=list(zip(prob.lower, prob.upper)),
                  method="highs")
    if sol.status == SolveStatus.OPTIMAL:
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
    elif sol.status == SolveStatus.INFEASIBLE:
        assert ref.status == 2
    elif sol.status == SolveStatus.UNBOUNDED:
        assert ref.status == 3


def test_random_lps_match_scipy():
    for seed in range(40):
        prob = random_lp(seed)
        sol = solve_lp(prob)
        scipy_check(prob, sol)


def test_optimal_lp_solutions_are_row_feasible():
    checked = 0
    for seed in range(60, 100):
        prob = random_lp(seed)
        sol = solve_lp(prob)
        if sol.status != SolveStatus.OPTIMAL:
            continue
        checked += 1
        x = np.asarray(sol.x)
        assert np.all(x >= np.asarray(prob.lower) - 1e-7)
        assert np.all(x <= np.asarray(prob.upper) + 1e-7)
        for row, sense, rhs in zip(prob.A, prob.senses, prob.b):
            lhs = float(row @ x)
            if sense < 0:
                assert lhs <= rhs + 1e-7
            elif sense > 0:
                assert lhs >= rhs - 1e-7
            else:
                assert lhs == pytest.approx(rhs, abs=1e-7)
    assert checked >= 10


def brute_force_mip(prob):
    """Optimum over all binary assignments, each solved as an LP."""
    int_idx = [j for j, flag in enumerate(prob.integer) if flag]
    best = None
    for assign in itertools.product((0.0, 1.0), repeat=len(int_idx)):
        lower = list(prob.lower)
        upper = list(prob.upper)
        for j, v in zip(int_idx, assign):
            lower[j] = upper[j] = v
        fixed = type(prob)(**{**prob.__dict__,
                              "lower": tuple(lower), "upper": tuple(upper),
                              "integer": tuple(False for _ in prob.integer)})
        sol = solve_lp(fixed)
        if sol.status != SolveStatus.OPTIMAL:
            continue
        val = sol.objective
        if best is None or (val > best if prob.maximize else val < best):
            best = val
    return best


def test_mip_matches_exhaustive_enumeration():
    agreed = 0
    for seed in range(200, 240):
        prob = random_lp(seed, n=8, m=5, integers=int(3 + seed % 4),
                         senses=("<=", ">="), anchored=seed % 3 != 0)
        sol = solve_milp(prob)
        ref = brute_force_mip(prob)
        if ref is None:
            assert sol.status == SolveStatus.INFEASIBLE
        else:
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref, abs=1e-7)
            agreed += 1
    assert agreed >= 25


def test_determinism_bit_for_bit():
    for seed in (7, 8, 9):
        prob = random_lp(seed, integers=3)
        a = solve_milp(prob)
        b = solve_milp(prob)
        assert a.status == b.status
        if a.x is not None:
            assert list(a.x) == list(b.x)
            assert a.objective == b.objective
            assert a.nodes == b.nodes


def test_milp_solution_is_integral_and_feasible():
    for seed in range(300, 320):
        prob = random_lp(seed, n=7, m=4, integers=3)
        sol = solve_milp(prob)
        if sol.status != SolveStatus.OPTIMAL:
            continue
        x = np.asarray(sol.x)
        for j, flag in enumerate(prob.integer):
            if flag:
                assert abs(x[j] - round(x[j])) <= 1e-6
        for row, sense, rhs in zip(prob.A, prob.senses, prob.b):
            lhs = float(row @ x)
            if sense < 0:
                assert lhs <= rhs + 1e-6
            elif sense > 0:
                assert lhs >= rhs - 1e-6


def test_lp_text_dump(tmp_path):
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, obj=1.0)
    u = pb.add_var("u", lo=0.0, up=1.0, obj=2.0, integer=True)
    pb.add_row([(x, 1.0), (u, -5.0)], "<=", 0.0, name="link")
    prob = pb.build()
    text = lp_format_text(prob)
    assert "Minimize" in text
    assert "link" in text
    assert "Generals" in text and "u" in text
    path = tmp_path / "prob.lp"
    dump_lp(prob, path)
    assert path.read_text() == text


# ---------------------------------------------------------------------------
# Warm re-solves from an optimal basis


def warm_resolve(prob, start, lower, upper, factor=None):
    """Warm re-solve from ``start``, factored here unless ``factor`` is
    given."""
    cols = solver._Columns(*solver._prepare(prob))
    if factor is None:
        factor = cols.factor(start)
    return solver._warm_solve(cols, np.asarray(lower, dtype=float),
                              np.asarray(upper, dtype=float), start, factor,
                              SolverOptions())


@pytest.fixture
def cold_calls(monkeypatch):
    """Counts the cold solves made from here on, fallbacks included."""
    calls = []
    cold = solver._simplex_solve

    def counted(*args):
        calls.append(args)
        return cold(*args)

    monkeypatch.setattr(solver, "_simplex_solve", counted)
    return calls


def test_warm_resolve_after_tightening_matches_cold(cold_calls):
    checked = 0
    for seed in range(400, 440):
        prob = random_lp(seed, anchored=True)
        # nonzero lower bounds, so a basic's resting value matters
        prob = dataclasses.replace(prob, lower=prob.lower - 1.0)
        root = solve_lp(prob)
        if root.status != SolveStatus.OPTIMAL:
            continue
        # cut the optimum off: halve the largest distance from a lower bound
        j = int(np.argmax(root.x - prob.lower))
        if root.x[j] - prob.lower[j] < 1e-3:
            continue
        upper = prob.upper.copy()
        upper[j] = (prob.lower[j] + root.x[j]) / 2.0
        cold_calls.clear()
        warm = warm_resolve(prob, root.basis, prob.lower, upper)
        assert cold_calls == []         # answered without a fallback
        cold = solve_lp(dataclasses.replace(prob, upper=upper))
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            checked += 1
    assert checked >= 10


def test_warm_infeasible_tightening_is_farkas_confirmed(cold_calls):
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=10.0, obj=-1.0)
    y = pb.add_var("y", lo=0.0, up=10.0, obj=-2.0)
    pb.add_row([(x, 1.0), (y, 1.0)], "<=", 1.0)
    prob = pb.build()
    root = solve_lp(prob)
    assert root.status == SolveStatus.OPTIMAL
    lower = prob.lower.copy()
    lower[x] = 2.0                      # x + y <= 1 is now out of reach
    cold_calls.clear()
    warm = warm_resolve(prob, root.basis, lower, prob.upper)
    assert warm.status == SolveStatus.INFEASIBLE
    assert cold_calls == []
    cold = solve_lp(dataclasses.replace(prob, lower=lower))
    assert cold.status == SolveStatus.INFEASIBLE


def test_unconfirmed_farkas_row_falls_back_to_cold(cold_calls):
    # Two independent blocks.  In the first, the row 1e-3 (x1 + y1) + z1
    # <= 1e-3 gives y1 the Farkas multiplier 1e3 while its largest
    # coefficient, on z1, is 1; raising lower(x1) past 1 by 5e-7 pushes
    # y1 furthest out of bounds, so the dual simplex stops on its row,
    # but that row's residual is only 5e-10, below the cut at which a
    # cold phase 1 calls an LP empty: it cannot confirm.  The second
    # block, x2 + y2 <= 1 with lower(x2) raised by 2e-7, is empty beyond
    # that cut, so the cold fallback finds the LP infeasible.
    pb = ProblemBuilder()
    x1 = pb.add_var("x1", lo=0.0, up=10.0, obj=0.0)
    y1 = pb.add_var("y1", lo=0.0, up=10.0, obj=-1.0)
    z1 = pb.add_var("z1", lo=0.0, up=10.0, obj=1.0)
    x2 = pb.add_var("x2", lo=0.0, up=10.0, obj=0.0)
    y2 = pb.add_var("y2", lo=0.0, up=10.0, obj=-1.0)
    pb.add_row([(x1, 1e-3), (y1, 1e-3), (z1, 1.0)], "<=", 1e-3)
    pb.add_row([(x2, 1.0), (y2, 1.0)], "<=", 1.0)
    prob = pb.build()
    root = solve_lp(prob)
    assert root.status == SolveStatus.OPTIMAL
    lower = prob.lower.copy()
    lower[x1] = 1.0 + 5e-7
    lower[x2] = 1.0 + 2e-7
    cold_calls.clear()
    warm = warm_resolve(prob, root.basis, lower, prob.upper)
    assert len(cold_calls) == 1         # the fallback ran
    assert warm.status == SolveStatus.INFEASIBLE
    cold = solve_lp(dataclasses.replace(prob, lower=lower))
    assert cold.status == SolveStatus.INFEASIBLE


def small_row_lp(x_lower):
    """min -y  s.t.  1e-3 x + 1e-3 y <= 1e-3,  x in [x_lower, 10],
    y in [0, 10]: a row whose coefficients are all far below 1."""
    pb = ProblemBuilder()
    pb.add_var("x", lo=x_lower, up=10.0)
    pb.add_var("y", lo=0.0, up=10.0, obj=-1.0)
    pb.add_row([(0, 1e-3), (1, 1e-3)], "<=", 1e-3)
    return pb.build()


def test_small_coefficient_row_just_out_of_reach_is_infeasible():
    # The row residual is only 3e-10, but absorbing it moves x or y by
    # 3e-7, more than the check of a returned basis allows; phase 1 must
    # call the LP empty rather than hand phase 2 a start it cannot repair.
    prob = small_row_lp(1.0 + 3e-7)
    sol = solve_lp(prob)
    assert sol.status == SolveStatus.INFEASIBLE
    scipy_check(prob, sol)


def test_small_coefficient_row_just_in_reach_is_optimal():
    prob = small_row_lp(1.0 - 3e-7)
    sol = solve_lp(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-3e-7, abs=1e-12)
    scipy_check(prob, sol)


def test_warm_farkas_agrees_with_cold_on_a_small_coefficient_row(cold_calls):
    prob = small_row_lp(0.0)
    root = solve_lp(prob)
    assert root.status == SolveStatus.OPTIMAL
    lower = prob.lower.copy()
    lower[0] = 1.0 + 3e-7
    cold_calls.clear()
    warm = warm_resolve(prob, root.basis, lower, prob.upper)
    assert warm.status == SolveStatus.INFEASIBLE
    assert cold_calls == []             # confirmed by the Farkas row


# ---------------------------------------------------------------------------
# One factorization per branch-and-bound node


def tightened_pair(seed):
    """A random LP with its optimum, and the bounds of the two children
    that branch on the variable furthest from its lower bound; None
    when the LP has no optimum."""
    prob = random_lp(seed, anchored=True)
    prob = dataclasses.replace(prob, lower=prob.lower - 1.0)
    root = solve_lp(prob)
    if root.status != SolveStatus.OPTIMAL:
        return None
    j = int(np.argmax(root.x - prob.lower))
    mid = (prob.lower[j] + root.x[j]) / 2.0
    down = (prob.lower, np.where(np.arange(prob.num_vars) == j, mid,
                                 prob.upper))
    up = (np.where(np.arange(prob.num_vars) == j, mid, prob.lower),
          prob.upper)
    return prob, root, down, up


def test_children_pivot_on_their_own_copy_of_the_node_factor(cold_calls):
    pivoted = 0
    for seed in range(400, 440):
        pair = tightened_pair(seed)
        if pair is None:
            continue
        prob, root, down, up = pair
        cols = solver._Columns(*solver._prepare(prob))
        factor = cols.factor(root.basis)
        binv, d = factor.binv.copy(), factor.d.copy()
        opts = SolverOptions()
        left = solver._Simplex(cols, *down, opts, start=root.basis,
                               factor=factor)
        right = solver._Simplex(cols, *up, opts, start=root.basis,
                                factor=factor)
        left.dual_iterate(opts.max_iterations)
        pivoted += left.iterations > 0
        # the node's factor and the sibling's copy are untouched
        assert np.array_equal(factor.binv, binv)
        assert np.array_equal(factor.d, d)
        assert np.array_equal(right.Binv, binv)
        assert np.array_equal(right.d, d)
        # and each child re-solved from the shared factor matches cold
        for lower, upper in (down, up):
            cold_calls.clear()
            warm = warm_resolve(prob, root.basis, lower, upper, factor)
            assert cold_calls == []
            cold = solve_lp(dataclasses.replace(prob, lower=lower,
                                                upper=upper))
            assert warm.status == cold.status
            if cold.status == SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective,
                                                       abs=1e-7)
    assert pivoted >= 5


def test_singular_start_basis_falls_back_to_cold(cold_calls):
    prob, root, down, _ = tightened_pair(400)
    # the slack of row 0 twice, so B is exactly singular
    n, m = prob.num_vars, prob.num_rows
    basic = n + np.array([0, 0] + list(range(2, m)))
    status = np.zeros(n + 2 * m, dtype=np.int8)
    status[basic] = solver._BASIC
    singular = solver.Basis(basic, status)
    cols = solver._Columns(*solver._prepare(prob))
    assert cols.factor(singular) is None
    cold_calls.clear()
    warm = warm_resolve(prob, singular, *down)
    assert len(cold_calls) == 1
    cold = solve_lp(dataclasses.replace(prob, lower=down[0], upper=down[1]))
    assert warm.status == cold.status == SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_moved_state_is_rederived_before_the_optimum_check(monkeypatch):
    prob, root, _, _ = tightened_pair(402)
    cols = solver._Columns(*solver._prepare(prob))
    opts = SolverOptions()
    sx = solver._Simplex(cols, prob.lower, prob.upper, opts,
                         start=root.basis, factor=cols.factor(root.basis))
    assert sx.iterate(opts.max_iterations) == SolveStatus.OPTIMAL
    assert sx.derived
    truth = sx.xB.copy()
    rederived = []
    rederive = sx._rederive
    monkeypatch.setattr(sx, "_rederive",
                        lambda: (rederived.append(1), rederive()))
    # derived at this basis and unmoved: the check reuses the values
    assert solver._verified_optimum(sx, opts)
    assert rederived == []
    # a move of the nonbasics clears the flag; values that drifted
    # after it are re-derived before the check, not trusted
    sx._rest_nonbasics(sx.stat)
    assert not sx.derived
    sx.xB += 1.0
    assert solver._verified_optimum(sx, opts)
    assert rederived == [1]
    assert np.allclose(sx.xB, truth, atol=1e-12)


def random_mixed_milp(seed: int):
    """Small MILP on integer data: 4-7 binaries, two bounded continuous
    variables and a free variable pinned by an equality row, plus 3-5
    rows of every sense.  Integer data give degenerate and tied optima,
    and equality rows over binaries make many children infeasible."""
    rng = np.random.default_rng(seed)
    pb = ProblemBuilder()
    cols = [pb.add_var(f"u{i}", lo=0.0, up=1.0,
                       obj=float(rng.integers(-3, 4)), integer=True)
            for i in range(int(rng.integers(4, 8)))]
    cols += [pb.add_var(f"x{i}", lo=0.0, up=float(rng.integers(1, 4)),
                        obj=float(rng.integers(-2, 3))) for i in range(2)]
    z = pb.add_var("z", lo=-np.inf, up=np.inf,
                   obj=float(rng.choice([-1.0, 1.0])))
    pb.add_row([(z, 1.0)] + [(j, float(rng.integers(-2, 3))) for j in cols],
               "==", float(rng.integers(-2, 3)))
    for _ in range(int(rng.integers(3, 6))):
        sense = str(rng.choice(["<=", ">=", "=="], p=[0.45, 0.4, 0.15]))
        pb.add_row([(j, float(rng.integers(-3, 4))) for j in cols], sense,
                   float(rng.integers(-2, 4)))
    return pb.build()


def scipy_milp_optimum(prob):
    """HiGHS optimum of a MilpProblem, or None when it is infeasible."""
    opt = pytest.importorskip("scipy.optimize")
    lower = np.where(prob.senses == -1, -np.inf, prob.b)
    upper = np.where(prob.senses == 1, np.inf, prob.b)
    with warnings.catch_warnings():
        # HiGHS's default 1e-6 integrality tolerance accepts points off
        # the true optimum by about that much; scipy passes the tighter
        # tolerances on but warns that it does not know them
        warnings.simplefilter("ignore", RuntimeWarning)
        res = opt.milp(prob.c, integrality=prob.integer.astype(int),
                       bounds=opt.Bounds(prob.lower, prob.upper),
                       constraints=opt.LinearConstraint(prob.A, lower, upper),
                       options={"mip_rel_gap": 0.0,
                                "primal_feasibility_tolerance": 1e-9,
                                "mip_feasibility_tolerance": 1e-9})
    assert res.status in (0, 2)         # optimal or infeasible
    return res.fun if res.status == 0 else None


def test_warm_started_milps_match_scipy_and_enumeration(monkeypatch,
                                                        cold_calls):
    warm_status = []
    warm = solver._warm_solve

    def tallied(*args):
        sol = warm(*args)
        warm_status.append(sol.status)
        return sol

    monkeypatch.setattr(solver, "_warm_solve", tallied)
    solved = 0
    for seed in range(500, 560):
        prob = random_mixed_milp(seed)
        cold_calls.clear()
        sol = solve_milp(prob)
        assert len(cold_calls) == 1     # the root; no warm LP fell back
        ref = scipy_milp_optimum(prob)
        brute = brute_force_mip(prob)
        if ref is None:
            assert brute is None
            assert sol.status == SolveStatus.INFEASIBLE
        else:
            assert brute == pytest.approx(ref, abs=1e-7)
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref, abs=1e-7)
            solved += 1
    assert solved >= 20
    assert warm_status.count(SolveStatus.INFEASIBLE) >= 20
    assert warm_status.count(SolveStatus.OPTIMAL) >= 20
