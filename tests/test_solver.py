"""Bounded-variable simplex and branch-and-bound correctness.

The independent references here are exhaustive enumeration (every
binary assignment solved as an LP) and scipy.optimize.linprog and
milp, which are test-only dependencies.  Warm re-solves from a basis
are checked against cold solves of the same problem.
"""

import dataclasses
import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from equiprune import (InputError, MilpProblem, ProblemBuilder,
                       ProblemTooLargeError, PruneSet, SolveStatus, dump_lp,
                       lp_format_text, prune_l0, pruner, solve_lp,
                       solve_milp, solver)
from conftest import random_boosted_instance


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


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_rows_within_the_pivot_tolerance_are_infeasible(rows):
    # min w s.t. 1e-9 w >= 1, the row held once or more: the entries lie
    # at the pivot tolerance, so no pivot can move w and no row is met
    problem = MilpProblem(c=np.ones(1), A=np.full((rows, 1), 1e-9),
                          senses=np.ones(rows, dtype=np.int8),
                          b=np.ones(rows), lower=np.zeros(1),
                          upper=np.full(1, np.inf),
                          integer=np.zeros(1, dtype=bool))
    assert solve_lp(problem).status == SolveStatus.INFEASIBLE


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
    # solve_lp answers the relaxation at the root, without branching:
    # the fractional knapsack takes items 3 and 2, the best by value per
    # size, and two thirds of item 0, 11 + 7 + 20/3
    relaxed = solve_lp(prob)
    assert relaxed.status == SolveStatus.OPTIMAL and relaxed.nodes == 0
    assert relaxed.objective == pytest.approx(11.0 + 7.0 + 20.0 / 3.0)
    assert np.count_nonzero(relaxed.x != np.round(relaxed.x)) == 1
    scipy_check(prob, relaxed)


def test_integral_relaxation_short_circuits():
    pb = ProblemBuilder()
    u = pb.add_var("u", lo=0.0, up=1.0, obj=1.0, integer=True)
    pb.add_row([(u, 1.0)], ">=", 1.0)
    prob = pb.build()
    relaxed = solve_lp(prob)
    mip = solve_milp(prob)
    assert relaxed.nodes == 0
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
    """Cross-check an LP solve against scipy.optimize.linprog, which
    minimizes: a maximizing problem goes in with its costs negated."""
    sign = -1.0 if prob.maximize else 1.0
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(prob.A, prob.senses, prob.b):
        if sense < 0:  # <=
            A_ub.append(row), b_ub.append(rhs)
        elif sense > 0:  # >=
            A_ub.append(-row), b_ub.append(-rhs)
        else:
            A_eq.append(row), b_eq.append(rhs)
    ref = linprog(c=sign * prob.c,
                  A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=list(zip(prob.lower, prob.upper)),
                  method="highs")
    if sol.status == SolveStatus.OPTIMAL:
        assert ref.status == 0
        assert sol.objective == pytest.approx(sign * ref.fun, abs=1e-6)
    elif sol.status == SolveStatus.INFEASIBLE:
        assert ref.status == 2
    elif sol.status == SolveStatus.UNBOUNDED:
        assert ref.status == 3


def test_random_lps_match_scipy():
    for seed in range(40):
        prob = random_lp(seed)
        sol = solve_lp(prob)
        scipy_check(prob, sol)


def test_l0_check_lps_match_scipy(monkeypatch):
    """The ``l0`` check LPs maximize; each one ``prune_l0`` solves on a
    few boosted stump draws, from a held basis or the slack basis, has
    scipy's optimum, the failing checks (optimum >= 1) included."""
    checks = []
    plain = pruner.solve_lp

    def recorded(problem, start=None):
        sol = plain(problem, start=start)
        if problem.maximize:
            checks.append((problem, sol))
        return sol

    monkeypatch.setattr(pruner, "solve_lp", recorded)
    for ens, data in filter(None, map(random_boosted_instance, range(4))):
        ps = PruneSet(ens)
        ps.add_points(data.X)
        prune_l0(ps)
    assert sum(sol.objective > 0.5 for _, sol in checks) >= 5
    for problem, sol in checks:
        scipy_check(problem, sol)


@pytest.fixture
def finishes(monkeypatch):
    """Each ``_finish`` call: (the basis it starts from, whether that
    basis was held, the pivots the dual simplex made in it, None when
    the dual simplex never ran)."""
    calls = []
    finish = solver._finish
    dual_iterate = solver._Simplex.dual_iterate

    def recorded(sx, held):
        calls.append((list(sx.basis), held, None))
        return finish(sx, held)

    def counted(sx):
        before = sx.iterations
        result = dual_iterate(sx)
        basic, held, dual = calls[-1]
        calls[-1] = (basic, held, (dual or 0) + sx.iterations - before)
        return result

    monkeypatch.setattr(solver, "_finish", recorded)
    monkeypatch.setattr(solver._Simplex, "dual_iterate", counted)
    return calls


def test_a_cold_solve_starts_from_the_slack_basis(finishes):
    for seed in range(40):
        prob = random_lp(seed)
        n, m = prob.num_vars, prob.num_rows
        # the starting point, the lower bounds, lies on every row: every
        # slack is zero, so the basics lie within their bounds and the
        # primal simplex alone finishes
        at = dataclasses.replace(prob, b=prob.A @ prob.lower)
        finishes.clear()
        scipy_check(at, solve_lp(at))
        assert finishes == [(list(range(n, n + m)), False, None)]
        # off one row: a '>=' or '==' row's slack lies outside its bounds
        off = dataclasses.replace(at, b=at.b + (np.arange(m) == 0))
        finishes.clear()
        scipy_check(off, solve_lp(off))
        [(basic, held, dual)] = finishes
        assert basic == list(range(n, n + m)) and not held
        assert (dual is not None) == (prob.senses[0] != -1)


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
    """Optimum over all assignments of the integer variables within
    their bounds, each solved as an LP."""
    int_idx = [j for j, flag in enumerate(prob.integer) if flag]
    values = [np.arange(np.ceil(prob.lower[j]), np.floor(prob.upper[j]) + 1)
              for j in int_idx]
    best = None
    for assign in itertools.product(*values):
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
    """Warm re-solve from ``start``, factored by ``_solve`` unless
    ``factor`` is given."""
    cols = solver._Columns(prob)
    return solver._solve(cols, np.asarray(lower, dtype=float),
                         np.asarray(upper, dtype=float), start, factor)


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
    # Two independent blocks.  In the first, the nearly parallel rows
    # x1 + y1 <= 1 and x1 + 1.001 y1 >= 1.0005 force y1 >= 0.5; with
    # upper(y1) lowered 5e-7 below that, the dual simplex stops on y1's
    # row, but its Farkas multipliers are about 1e3 while the rows miss
    # by only 5e-10, below the cut at which a held start's Farkas row
    # proves an LP empty: it cannot confirm.  The second block,
    # x2 + y2 <= 1 with lower(x2) raised by 2e-7, is empty beyond that
    # cut, so the fallback from the slack basis finds the LP infeasible.
    pb = ProblemBuilder()
    x1 = pb.add_var("x1", lo=0.0, up=10.0, obj=0.0)
    y1 = pb.add_var("y1", lo=0.0, up=10.0, obj=1.0)
    x2 = pb.add_var("x2", lo=0.0, up=10.0, obj=0.0)
    y2 = pb.add_var("y2", lo=0.0, up=10.0, obj=-1.0)
    pb.add_row([(x1, 1.0), (y1, 1.0)], "<=", 1.0)
    pb.add_row([(x1, 1.0), (y1, 1.001)], ">=", 1.0005)
    pb.add_row([(x2, 1.0), (y2, 1.0)], "<=", 1.0)
    prob = pb.build()
    root = solve_lp(prob)
    assert root.status == SolveStatus.OPTIMAL
    assert root.x[y1] == pytest.approx(0.5)
    lower, upper = prob.lower.copy(), prob.upper.copy()
    upper[y1] = 0.5 - 5e-7
    lower[x2] = 1.0 + 2e-7
    cold_calls.clear()
    warm = warm_resolve(prob, root.basis, lower, upper)
    assert len(cold_calls) == 1         # the fallback ran
    assert warm.status == SolveStatus.INFEASIBLE
    cold = solve_lp(dataclasses.replace(prob, lower=lower, upper=upper))
    assert cold.status == SolveStatus.INFEASIBLE


def nearly_parallel_rows_lp():
    """min y1 s.t. x1 + y1 <= 1, x1 + 1.001 y1 >= 1.0005, x1 in [0, 10],
    y1 in [0, 0.5 - 5e-7]: the rows force y1 >= 0.5, but miss by only
    5e-10, below the cut of a held start's Farkas confirmation."""
    pb = ProblemBuilder()
    x1 = pb.add_var("x1", lo=0.0, up=10.0, obj=0.0)
    y1 = pb.add_var("y1", lo=0.0, up=0.5 - 5e-7, obj=1.0)
    pb.add_row([(x1, 1.0), (y1, 1.0)], "<=", 1.0)
    pb.add_row([(x1, 1.0), (y1, 1.001)], ">=", 1.0005)
    return pb.build()


def test_a_leftover_magnified_past_the_check_is_infeasible():
    # The rows miss by only 5e-10, but B^{-1} magnifies that: meeting
    # them puts y1 5e-7 above its bound, past the tolerance of the
    # returned-solution check.  Both entry points call it empty on the
    # dual simplex's Farkas row, as HiGHS does, instead of failing the
    # check three times.
    prob = nearly_parallel_rows_lp()
    sol = solve_lp(prob)
    assert sol.status == SolveStatus.INFEASIBLE
    scipy_check(prob, sol)
    assert solve_milp(prob).status == SolveStatus.INFEASIBLE
    assert scipy_milp_optimum(prob) is None
    # with room for y1 = 0.5 both solve it
    room = dataclasses.replace(prob, upper=np.array([10.0, 0.5]))
    assert solve_lp(room).objective == pytest.approx(0.5, abs=1e-9)
    assert solve_milp(room).objective == pytest.approx(0.5, abs=1e-9)


def test_a_farkas_row_with_large_multipliers_proves_emptiness():
    # min 1e8 u  s.t.  1.5 u >= 1e-6 (twice), 1.50000001 u - one >= 1e-6,
    # -1e8 u >= -1e-8, u in [0, 1], one fixed at 1: the third row needs
    # u >= 0.67 and the last u <= 1e-16.  The dual simplex stops on the
    # last row with multipliers near 7e7, whose roundoff leaves -3e-9 as
    # the first row's multiplier; that row's slack is unbounded below,
    # so the residue alone would hide the gap.  Both entry points prove
    # the LP empty.
    prob = MilpProblem(
        c=np.array([1e8, 0.0]),
        A=np.array([[1.5, 0.0], [1.5, 0.0], [1.50000001, -1.00000001],
                    [-1e8, 0.0]]),
        senses=np.ones(4, dtype=np.int8),
        b=np.array([1e-6, 1e-6, 1e-6, -1e-8]), lower=np.array([0.0, 1.0]),
        upper=np.array([1.0, 1.0]), integer=np.array([True, True]))
    sol = solve_lp(prob)
    assert sol.status == SolveStatus.INFEASIBLE
    scipy_check(prob, sol)
    assert solve_milp(prob).status == SolveStatus.INFEASIBLE


def test_badly_scaled_lps_match_scipy():
    # the random LPs above with rows scaled by 1e-4 to 1e4 and columns by
    # 1e-3 to 1e3: a Farkas row from the slack basis often misses the
    # rows by more than the cut of ``_farkas_confirms`` while its basic
    # stays inside the check's tolerance, which grows with max|b|, and
    # either proof makes the LP empty
    empty = 0
    for seed in range(9000, 9500):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        prob = random_lp(seed, n=n, m=m, anchored=bool(seed % 2))
        rows = 10.0 ** rng.uniform(-4, 4, m)
        cols = 10.0 ** rng.uniform(-3, 3, n)
        prob = dataclasses.replace(
            prob, A=prob.A * rows[:, None] * cols, b=prob.b * rows,
            c=prob.c * cols, lower=prob.lower / cols,
            upper=prob.upper / cols)
        sol = solve_lp(prob)
        scipy_check(prob, sol)
        empty += sol.status == SolveStatus.INFEASIBLE
    assert empty >= 100


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
    # 3e-7, more than the check of a returned basis allows; the solve
    # must call the LP empty rather than fail that check.
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


def test_mixed_coefficient_row_just_out_of_reach_is_infeasible():
    # min -y + z  s.t.  1e-3 x + 1e-3 y + z <= 1e-3,  x >= 1 + 5e-7: the
    # row misses by 5e-10, which z could absorb by moving 5e-10, but the
    # simplex puts it on y, 5e-7 below its bound.  Counted in units of
    # the smallest coefficient the miss passes the check's tolerance, so
    # the LP is empty.
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=1.0 + 5e-7, up=10.0)
    y = pb.add_var("y", lo=0.0, up=10.0, obj=-1.0)
    z = pb.add_var("z", lo=0.0, up=10.0, obj=1.0)
    pb.add_row([(x, 1e-3), (y, 1e-3), (z, 1.0)], "<=", 1e-3)
    prob = pb.build()
    sol = solve_lp(prob)
    assert sol.status == SolveStatus.INFEASIBLE
    scipy_check(prob, sol)
    assert solve_milp(prob).status == SolveStatus.INFEASIBLE
    # just inside, the same row is feasible to both
    inside = dataclasses.replace(prob, lower=np.array([1.0 - 5e-7, 0.0,
                                                      0.0]))
    sol = solve_lp(inside)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-5e-7, abs=1e-12)
    scipy_check(inside, sol)
    assert solve_milp(inside).objective == pytest.approx(-5e-7, abs=1e-12)


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


def changed_bounds(prob, rng, kind):
    """New bounds for two random columns: each narrowed to a random
    subinterval ("tighten"), widened, sometimes without limit above
    ("loosen"), or one of each ("mixed")."""
    lower, upper = prob.lower.copy(), prob.upper.copy()
    cols = rng.choice(prob.num_vars, size=2, replace=False)
    kinds = {"tighten": ("tighten",) * 2, "loosen": ("loosen",) * 2,
             "mixed": ("tighten", "loosen")}[kind]
    for j, how in zip(cols, kinds):
        if how == "tighten":
            lower[j], upper[j] = np.sort(rng.uniform(lower[j], upper[j],
                                                     size=2))
        else:
            lower[j] -= rng.uniform(0.0, 2.0)
            upper[j] = (np.inf if rng.random() < 0.3
                        else upper[j] + rng.uniform(0.0, 2.0))
    return dataclasses.replace(prob, lower=lower, upper=upper)


def neither_feasible(prob, start):
    """Whether ``start``, with every nonbasic resting at its status,
    is neither primal nor dual feasible for ``prob``."""
    cols = solver._Columns(prob)
    sx = solver._Simplex(cols, np.asarray(prob.lower, dtype=float),
                         np.asarray(prob.upper, dtype=float), start=start,
                         factor=cols.factor(start))
    return bool(solver._outside(sx).any()
                and sx._candidates(10 * sx.pricing_tol()).any())


def test_solve_lp_from_a_start_matches_cold_and_scipy(cold_calls):
    rng = np.random.default_rng(17)
    verdicts = {"warm": [], "fell back": []}
    relaxed = 0                 # neither primal nor dual feasible, warm
    for seed in range(600, 660):
        prob = random_lp(seed, anchored=True)
        prob = dataclasses.replace(prob, lower=prob.lower - 1.0)
        root = solve_lp(prob)
        if root.status != SolveStatus.OPTIMAL:
            continue
        for kind in ("tighten", "loosen", "mixed"):
            changed = changed_bounds(prob, rng, kind)
            neither = neither_feasible(changed, root.basis)
            cold_calls.clear()
            warm = solve_lp(changed, start=root.basis)
            verdicts["fell back" if cold_calls else "warm"].append(
                warm.status)
            relaxed += neither and not cold_calls
            scipy_check(changed, warm)
            cold = solve_lp(changed)
            assert warm.status == cold.status
            if cold.status == SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective,
                                                       abs=1e-7)
    # most re-solves finish warm, also from starts that are neither
    # primal nor dual feasible; an empty one only on a Farkas row
    assert verdicts["warm"].count(SolveStatus.OPTIMAL) >= 100
    assert verdicts["warm"].count(SolveStatus.INFEASIBLE) >= 15
    assert relaxed >= 5


def test_solve_lp_from_a_dual_infeasible_start_finishes_warm(cold_calls):
    # min -x  s.t.  x + y <= 4: x rests at its upper bound 2 at the
    # optimum; without that bound the start's reduced cost on x has the
    # wrong sign for its other bound, but the start is still primal
    # feasible, so the primal loop finishes it
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=2.0, obj=-1.0)
    y = pb.add_var("y", lo=0.0, up=10.0)
    pb.add_row([(x, 1.0), (y, 1.0)], "<=", 4.0)
    prob = pb.build()
    root = solve_lp(prob)
    assert root.status == SolveStatus.OPTIMAL
    assert root.x[x] == 2.0
    free = dataclasses.replace(prob, upper=np.array([np.inf, 10.0]))
    cold_calls.clear()
    sol = solve_lp(free, start=root.basis)
    assert cold_calls == []
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == -4.0
    scipy_check(free, sol)


def x_at_upper_lp():
    """min -2x - y  s.t.  x + y <= 4,  x in [0, 2],  y in [0, 10], and
    its unique optimum: x at its upper bound 2, y the one basic at 2."""
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=2.0, obj=-2.0)
    y = pb.add_var("y", lo=0.0, up=10.0, obj=-1.0)
    pb.add_row([(x, 1.0), (y, 1.0)], "<=", 4.0)
    prob = pb.build()
    root = solve_lp(prob)
    assert list(root.basis.basic) == [y] and root.x[y] == 2.0
    return prob, root


def test_solve_lp_from_a_start_neither_primal_nor_dual_feasible_finishes_warm(
        cold_calls):
    # the start above under min x - y and y >= 3: x rests at its upper
    # bound 2, where its reduced cost now has the wrong sign, and y, the
    # one basic, stays at 4 - 2 = 2, below its new lower bound.  Freed,
    # y takes up what x gives back, x falls to 0, and y = 4 meets its
    # bound again
    prob, root = x_at_upper_lp()
    changed = dataclasses.replace(prob, c=np.array([1.0, -1.0]),
                                  lower=np.array([0.0, 3.0]))
    cold_calls.clear()
    sol = solve_lp(changed, start=root.basis)
    assert cold_calls == []
    assert sol.warm and sol.status == SolveStatus.OPTIMAL
    assert sol.objective == -4.0
    assert sol.objective == solve_lp(changed).objective
    scipy_check(changed, sol)


def test_an_empty_lp_from_a_start_neither_feasible_finishes_warm(
        cold_calls):
    # the start above under min y, x >= 0 without an upper bound and
    # y >= 5: x rests at 0 with a reduced cost of the wrong sign, and y
    # at 4 lies below its bound.  With x's cost shifted, the dual
    # simplex finds no column that raises y: the rows leave y at most 4,
    # and y's row is the Farkas row that proves it
    prob, root = x_at_upper_lp()
    changed = dataclasses.replace(prob, c=np.array([0.0, 1.0]),
                                  lower=np.array([0.0, 5.0]),
                                  upper=np.array([np.inf, 10.0]))
    cold_calls.clear()
    sol = solve_lp(changed, start=root.basis)
    assert cold_calls == []
    assert sol.warm and sol.status == SolveStatus.INFEASIBLE
    scipy_check(changed, sol)


def test_changed_objective_and_last_row_resolve_warm_through_the_relaxation(
        cold_calls):
    # Like a pair of the oracle after the one before it: a new objective
    # and a new last row, which often cuts the start's point off.  Starts
    # that are neither primal nor dual feasible finish warm under
    # shifted costs; every answer matches the cold solve and linprog.
    rng = np.random.default_rng(71)
    solved = relaxed = 0
    for seed in range(700, 1000):
        prob = random_lp(seed, anchored=True)
        root = solve_lp(prob)
        if root.status != SolveStatus.OPTIMAL:
            continue
        c = rng.normal(size=prob.num_vars)
        A = prob.A.copy()
        A[-1] = rng.normal(size=prob.num_vars)
        b = prob.b.copy()
        b[-1] = A[-1] @ root.x + rng.uniform(-1.0, 1.0)
        changed = dataclasses.replace(prob, c=c, A=A, b=b)
        neither = neither_feasible(changed, root.basis)
        cold_calls.clear()
        warm = solve_lp(changed, start=root.basis)
        relaxed += neither and warm.warm and cold_calls == []
        scipy_check(changed, warm)
        cold = solve_lp(changed)
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        solved += 1
    assert solved >= 200
    assert relaxed >= 50


def test_solve_lp_start_of_another_shape_is_ignored(cold_calls):
    # optimal bases of problems with one more column, and one more row,
    # than prob: neither grows to prob, so the solve is prob's cold one
    prob = random_lp(3, senses=("<=", ">="), anchored=True)
    cold = solve_lp(prob)
    assert cold.status == SolveStatus.OPTIMAL
    for n, m in ((7, 5), (6, 6)):
        other = solve_lp(random_lp(4, n=n, m=m, senses=("<=", ">="),
                                   anchored=True))
        assert other.basis is not None
        cold_calls.clear()
        sol = solve_lp(prob, start=other.basis)
        assert len(cold_calls) == 1 and not sol.warm
        assert (sol.iterations, sol.objective) == (cold.iterations,
                                                   cold.objective)


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
        cols = solver._Columns(prob)
        factor = cols.factor(root.basis)
        binv, d = factor.binv.copy(), factor.d.copy()
        left = solver._Simplex(cols, *down, start=root.basis, factor=factor)
        right = solver._Simplex(cols, *up, start=root.basis, factor=factor)
        left.dual_iterate()
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
    status = np.zeros(n + m, dtype=np.int8)
    status[basic] = solver._BASIC
    singular = solver.Basis(basic, status)
    cols = solver._Columns(prob)
    assert cols.factor(singular) is None
    cold_calls.clear()
    warm = warm_resolve(prob, singular, *down)
    assert len(cold_calls) == 1
    cold = solve_lp(dataclasses.replace(prob, lower=down[0], upper=down[1]))
    assert warm.status == cold.status == SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


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
    """HiGHS optimum of a MilpProblem, or None when it is infeasible.
    HiGHS can call an integer column with fractional bounds empty when
    it is not, so those bounds are rounded inward first."""
    opt = pytest.importorskip("scipy.optimize")
    lower = np.where(prob.senses == -1, -np.inf, prob.b)
    upper = np.where(prob.senses == 1, np.inf, prob.b)
    col_lo = np.where(prob.integer, np.ceil(prob.lower), prob.lower)
    col_up = np.where(prob.integer, np.floor(prob.upper), prob.upper)
    with warnings.catch_warnings():
        # HiGHS's default 1e-6 integrality tolerance accepts points off
        # the true optimum by about that much; scipy passes the tighter
        # tolerances on but warns that it does not know them
        warnings.simplefilter("ignore", RuntimeWarning)
        res = opt.milp(prob.c, integrality=prob.integer.astype(int),
                       bounds=opt.Bounds(col_lo, col_up),
                       constraints=opt.LinearConstraint(prob.A, lower, upper),
                       options={"mip_rel_gap": 0.0,
                                "primal_feasibility_tolerance": 1e-9,
                                "mip_feasibility_tolerance": 1e-9})
    assert res.status in (0, 2)         # optimal or infeasible
    return res.fun if res.status == 0 else None


def test_warm_started_milps_match_scipy_and_enumeration(monkeypatch,
                                                        cold_calls):
    warm_status = []                    # of the solves from a held start
    solve = solver._solve

    def tallied(cols, lo, up, start=None, factor=None):
        sol = solve(cols, lo, up, start, factor)
        if start is not None:
            warm_status.append(sol.status)
        return sol

    monkeypatch.setattr(solver, "_solve", tallied)
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


def test_an_integral_objective_prunes_at_the_rounded_bound():
    # vertex covers of random 3-uniform hypergraphs: with unit costs a
    # node whose bound rounds up to the incumbent is pruned; halved
    # costs, which are not integers, search the same tree without that
    rng = np.random.default_rng(64)
    nodes = {1.0: 0, 0.5: 0}
    for _ in range(6):
        A = np.zeros((40, 20))
        for row in A:
            row[rng.choice(20, size=3, replace=False)] = 1.0
        prob = MilpProblem(c=np.ones(20), A=A,
                           senses=np.ones(40, dtype=np.int8), b=np.ones(40),
                           lower=np.zeros(20), upper=np.ones(20),
                           integer=np.ones(20, dtype=bool))
        ref = scipy_milp_optimum(prob)
        for cost in nodes:
            sol = solve_milp(dataclasses.replace(prob, c=cost * prob.c))
            assert sol.objective == pytest.approx(cost * ref, abs=1e-9)
            nodes[cost] += sol.nodes
    assert nodes[1.0] < nodes[0.5]


@pytest.fixture
def bb_lps(monkeypatch):
    """Branch and bound's LPs in call order: ("relaxed", solution) for
    the root and each child, ("polish", solution) for each polish LP
    (a ``_solve`` called from ``solve_milp``'s ``polish``)."""
    events = []
    solve = solver._solve

    def recorded(*args):
        sol = solve(*args)
        caller = sys._getframe(1).f_code.co_name
        events.append(("polish" if caller == "polish" else "relaxed", sol))
        return sol

    monkeypatch.setattr(solver, "_solve", recorded)
    return events


def integral_block(prob, sol):
    """(exactly integral, integral within ``_TOL_INT``) for the integer
    columns of an optimal relaxation."""
    v = sol.x[prob.integer]
    off = np.abs(v - np.round(v))
    return not off.any(), off.max(initial=0.0) <= solver._TOL_INT


def test_an_exactly_integral_relaxation_is_not_polished(bb_lps):
    """Random mixed MILPs and pure-binary covers: no relaxation whose
    integer block is exactly integral is followed by a polish LP, every
    polish LP follows one that is integral only within tolerance, and
    the optimum is scipy's."""
    rng = np.random.default_rng(90)
    covers = []
    for _ in range(30):
        n = int(rng.integers(5, 13))
        rows = cover_rows(rng, n, int(rng.integers(2, 8)))
        covers.append(MilpProblem(
            c=rng.integers(1, 4, n).astype(float),
            A=np.array([a for a, _, _ in rows]),
            senses=np.ones(len(rows), dtype=np.int8), b=np.ones(len(rows)),
            lower=np.zeros(n), upper=np.ones(n),
            integer=np.ones(n, dtype=bool)))
    exact = solved = 0
    for prob in [random_mixed_milp(seed) for seed in range(500, 540)] + covers:
        bb_lps.clear()
        sol = solve_milp(prob)
        ref = scipy_milp_optimum(prob)
        if ref is None:
            assert sol.status == SolveStatus.INFEASIBLE
        else:
            assert sol.objective == pytest.approx(ref, abs=1e-7)
            solved += 1
        kinds = [kind for kind, _ in bb_lps] + [None]
        for (kind, lp), following in zip(bb_lps, kinds[1:]):
            if kind == "polish" or lp.status != SolveStatus.OPTIMAL:
                continue
            is_exact, near = integral_block(prob, lp)
            exact += is_exact
            if following == "polish":
                assert near and not is_exact
            if is_exact:
                assert following != "polish"
    assert solved >= 40
    assert exact >= 50


def test_a_near_integral_relaxation_is_still_polished(bb_lps):
    # min -x + 10y s.t. x - y <= 1 - 5e-7: the relaxation stops at
    # x = 1 - 5e-7, inside the integrality tolerance; fixing x at 1
    # moves y to 5e-7, so the polish LP gives the optimum
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=3.0, obj=-1.0, integer=True)
    y = pb.add_var("y", lo=0.0, up=1.0, obj=10.0)
    pb.add_row([(x, 1.0), (y, -1.0)], "<=", 1.0 - 5e-7)
    prob = pb.build()
    sol = solve_milp(prob)
    (kind, relaxed), (then, polished) = bb_lps
    assert kind == "relaxed" and integral_block(prob, relaxed) == (False, True)
    assert then == "polish" and polished.status == SolveStatus.OPTIMAL
    assert sol.x[0] == 1.0 and sol.x[1] == pytest.approx(5e-7, abs=1e-12)
    assert sol.objective == pytest.approx(scipy_milp_optimum(prob), abs=1e-9)


# ---------------------------------------------------------------------------
# Warm roots after an objective change


def test_warm_root_after_an_objective_change_matches_cold(cold_calls):
    rng = np.random.default_rng(61)
    pivoted = 0
    for seed in range(400, 440):
        prob = random_lp(seed, anchored=True)
        root = solve_lp(prob)
        if root.status != SolveStatus.OPTIMAL:
            continue
        changed = dataclasses.replace(prob, c=rng.normal(size=prob.num_vars))
        cold_calls.clear()
        warm = warm_resolve(changed, root.basis, changed.lower,
                            changed.upper)
        assert cold_calls == []         # answered without a fallback
        pivoted += warm.iterations > 0
        cold = solve_lp(changed)
        assert warm.status == cold.status == SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
    assert pivoted >= 10


def test_warm_root_milps_match_enumeration(cold_calls):
    rng = np.random.default_rng(62)
    solved = 0
    for seed in range(500, 560):
        prob = random_mixed_milp(seed)
        first = solve_milp(prob)
        if first.basis is None:    # the relaxation is empty
            assert first.status == SolveStatus.INFEASIBLE
            continue
        changed = dataclasses.replace(
            prob, c=rng.integers(-3, 4, size=prob.num_vars).astype(float))
        cold_calls.clear()
        warm = solve_milp(changed, start=first.basis)
        assert cold_calls == []         # neither the root nor a child fell back
        brute = brute_force_mip(changed)
        cold = solve_milp(changed)
        assert warm.status == cold.status
        if brute is None:
            assert warm.status == SolveStatus.INFEASIBLE
        else:
            assert warm.objective == pytest.approx(brute, abs=1e-7)
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            solved += 1
    assert solved >= 20


def test_warm_root_from_a_singular_start_falls_back(cold_calls):
    prob = random_lp(400, anchored=True)
    n, m = prob.num_vars, prob.num_rows
    basic = n + np.array([0, 0] + list(range(2, m)))
    status = np.zeros(n + m, dtype=np.int8)
    status[basic] = solver._BASIC
    cold_calls.clear()
    warm = warm_resolve(prob, solver.Basis(basic, status), prob.lower,
                        prob.upper)
    assert len(cold_calls) == 1
    cold = solve_lp(prob)
    assert warm.status == cold.status == SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_warm_root_from_a_primal_infeasible_start_is_repaired(cold_calls):
    repaired = 0
    for seed in range(400, 440):
        pair = tightened_pair(seed)
        if pair is None:
            continue
        prob, root, down, _ = pair
        j = int(np.argmax(root.x - prob.lower))
        if j not in root.basis.basic:
            continue
        # j is basic at root.x[j], above its tightened upper bound; the
        # objective is unchanged, so the dual simplex repairs the start
        tightened = dataclasses.replace(prob, lower=down[0], upper=down[1])
        cold_calls.clear()
        warm = warm_resolve(tightened, root.basis, *down)
        assert cold_calls == []
        cold = solve_lp(tightened)
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        repaired += 1
    assert repaired >= 5


# ---------------------------------------------------------------------------
# Numerically singular bases and oversized problems


def test_numerically_singular_basis_is_not_factored():
    # One structural column twice: B is singular, but roundoff often
    # leaves np.linalg.inv a tiny nonzero pivot and a B^{-1} with
    # entries near 1e16 instead of an error.
    prob = random_lp(400)
    n, m = prob.num_vars, prob.num_rows
    cols = solver._Columns(prob)
    status = np.zeros(n + m, dtype=np.int8)
    inverted = 0
    for first in itertools.permutations(range(n), m - 1):
        basic = np.array(first + (first[0],))
        try:
            np.linalg.inv(cols.A_all[:, basic])
            inverted += 1
        except np.linalg.LinAlgError:
            pass
        assert cols.factor(solver.Basis(basic, status)) is None
    assert inverted > 0


def test_oversized_problem_is_refused_before_allocating():
    m = n = 20_000     # [A I] alone would take 6.4 GB
    prob = MilpProblem(c=np.broadcast_to(0.0, (n,)),
                       A=np.broadcast_to(0.0, (m, n)),
                       senses=np.broadcast_to(np.int8(-1), (m,)),
                       b=np.broadcast_to(1.0, (m,)),
                       lower=np.broadcast_to(0.0, (n,)),
                       upper=np.broadcast_to(1.0, (n,)),
                       integer=np.broadcast_to(False, (n,)))
    assert issubclass(ProblemTooLargeError, InputError)
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLargeError, match="20000 rows"):
            solve_lp(prob)
        with pytest.raises(ProblemTooLargeError):
            solve_milp(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# MILPs with fixed columns, singleton, doubleton and parallel rows


COEFFICIENTS = (-3.0, -2.0, -1.5, -0.5, 0.5, 2.0, 3.0)


def presolve_milp(seed: int, contradict: bool = False):
    """A small MILP with every structure a presolve would reduce, feasible
    at a random anchor point unless ``contradict``: fixed columns of both
    kinds, singleton rows on integer columns with fractional right-hand
    sides, equality rows on two columns with non-unit and negative
    coefficients and mixed integrality, a '<=' row and a multiple of it
    with the other sense that together form an equality (with
    ``contradict``, a range that excludes the first row's), and a few
    rows on every column."""
    rng = np.random.default_rng(seed)
    pb = ProblemBuilder()
    anchor = []

    def var(lo, up, value, integer=False):
        anchor.append(value)
        return pb.add_var(lo=lo, up=up, obj=float(rng.integers(-3, 4)),
                          integer=integer)

    ints = []
    for _ in range(int(rng.integers(3, 5))):
        up = float(rng.integers(1, 3))
        ints.append(var(0.0, up, float(rng.integers(0, up + 1)), True))
    conts = [var(-1.0, 2.0, float(rng.integers(-2, 5)) / 2)
             for _ in range(int(rng.integers(2, 5)))]
    fixed = [var(0.5, 0.5, 0.5), var(1.0, 1.0, 1.0, True)]
    every = ints + conts + fixed
    x = np.array(anchor)

    for u in rng.choice(ints, size=2, replace=False):
        a = float(rng.choice(COEFFICIENTS))
        slack = abs(a) * float(rng.uniform(0.1, 0.9))
        if rng.random() < 0.5:
            pb.add_row([(u, a)], "<=", a * x[u] + slack)
        else:
            pb.add_row([(u, a)], ">=", a * x[u] - slack)
    for _ in range(int(rng.integers(2, 4))):
        j, k = rng.choice(every, size=2, replace=False)
        aj, ak = rng.choice(COEFFICIENTS, size=2)
        pb.add_row([(j, aj), (k, ak)], "==", aj * x[j] + ak * x[k])

    terms = [(j, float(rng.choice(COEFFICIENTS)))
             for j in rng.choice(every, size=3, replace=False)]
    at = sum(a * x[j] for j, a in terms)
    factor = float(rng.choice([-2.0, -0.5, 3.0]))
    shift = 1.0 if contradict else 0.0
    pb.add_row(terms, "<=", at)
    pb.add_row([(j, factor * a) for j, a in terms],
               ">=" if factor > 0 else "<=", factor * (at + shift))
    for _ in range(int(rng.integers(1, 3))):
        terms = [(j, float(rng.integers(-2, 3))) for j in every]
        at = sum(a * x[j] for j, a in terms)
        pb.add_row(terms, "<=", at + float(rng.integers(0, 3)))
    return pb.build()


def test_presolved_milps_match_scipy_and_enumeration():
    for seed in range(700, 760):
        prob = presolve_milp(seed)
        sol = solve_milp(prob)
        ref = scipy_milp_optimum(prob)
        brute = brute_force_mip(prob)
        assert ref is not None          # feasible at its anchor
        assert brute == pytest.approx(ref, abs=1e-7)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(ref, abs=1e-7)
        assert sol.x.shape == (prob.num_vars,)
        assert prob.c @ sol.x == pytest.approx(sol.objective, abs=1e-9)


def test_contradicting_parallel_rows_are_infeasible():
    for seed in range(760, 800):
        prob = presolve_milp(seed, contradict=True)
        sol = solve_milp(prob)
        assert sol.status == SolveStatus.INFEASIBLE
        assert scipy_milp_optimum(prob) is None


def test_every_column_fixed():
    # x by its bounds; u, integral, by two singleton rows to [0.6, 1.4]
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=1.5, up=1.5, obj=-2.0)
    u = pb.add_var("u", lo=0.0, up=3.0, obj=1.0, integer=True)
    pb.add_row([(u, 2.0)], ">=", 1.2)
    pb.add_row([(u, -2.0)], ">=", -2.8)
    pb.add_row([(x, 2.0), (u, -1.0)], "<=", 2.0)
    pb.add_row([(x, 1.0), (u, 1.0)], ">=", 2.5)
    prob = pb.build()
    sol = solve_milp(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert list(sol.x) == [1.5, 1.0]
    assert sol.objective == -2.0
    assert sol.objective == scipy_milp_optimum(prob)
    # the same columns, but a row they miss by far more than the cut
    short = dataclasses.replace(prob, b=np.array([1.2, -2.8, 1.9, 2.5]))
    assert solve_milp(short).status == SolveStatus.INFEASIBLE
    assert scipy_milp_optimum(short) is None
    # and by less: the solver's own feasibility cut lets the point pass
    close = dataclasses.replace(prob, b=np.array([1.2, -2.8, 2.0 - 1e-11,
                                                  2.5]))
    assert solve_milp(close).status == SolveStatus.OPTIMAL


def test_scipy_reference_rounds_integer_bounds_inward():
    # HiGHS calls this infeasible when handed u's bounds as they are
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=1.5, up=1.5, obj=-2.0)
    u = pb.add_var("u", lo=0.6, up=1.4, obj=1.0, integer=True)
    pb.add_row([(x, 2.0), (u, -1.0)], "<=", 2.0)
    pb.add_row([(x, 1.0), (u, 1.0)], ">=", 2.5)
    prob = pb.build()
    assert scipy_milp_optimum(prob) == -2.0
    sol = solve_milp(prob)
    assert list(sol.x) == [1.5, 1.0]
    assert sol.objective == -2.0


def test_singleton_rows_round_integer_bounds_inward():
    pb = ProblemBuilder()
    u = pb.add_var("u", lo=0.0, up=5.0, obj=1.0, integer=True)
    v = pb.add_var("v", lo=0.0, up=5.0, obj=-1.0, integer=True)
    w = pb.add_var("w", lo=0.0, up=4.0, obj=-1.0)
    pb.add_row([(u, 2.0)], ">=", 1.5)           # u >= 0.75
    pb.add_row([(u, -2.0)], ">=", -3.5)         # u <= 1.75
    pb.add_row([(v, 2.5)], "<=", 6.0)           # v <= 2.4
    pb.add_row([(u, 1.0), (v, 1.0), (w, 1.0)], "<=", 4.5)
    prob = pb.build()
    sol = solve_milp(prob)
    assert list(sol.x) == [1.0, 2.0, 1.5]
    assert sol.objective == pytest.approx(scipy_milp_optimum(prob), abs=1e-9)


def test_doubleton_substitution_moves_bounds_and_objective():
    # 2x - 3y = 1 with y continuous in [0, 1]: x = (1 + 3y) / 2 must
    # stay in [0.5, 2], and y's cost moves onto it
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=5.0, obj=1.0)
    y = pb.add_var("y", lo=0.0, up=1.0, obj=-4.0)
    pb.add_row([(x, 2.0), (y, -3.0)], "==", 1.0)
    sol = solve_milp(pb.build())
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-12)
    assert sol.objective == pytest.approx(-2.0, abs=1e-12)


def test_warm_root_from_a_reduced_basis_matches_cold(cold_calls):
    rng = np.random.default_rng(63)
    solved = 0
    for seed in range(700, 740):
        prob = presolve_milp(seed)
        first = solve_milp(prob)
        basis = first.basis
        assert basis.basic.shape == (prob.num_rows,)
        assert basis.status.shape == (prob.num_vars + prob.num_rows,)
        changed = dataclasses.replace(
            prob, c=rng.integers(-3, 4, size=prob.num_vars).astype(float))
        cold_calls.clear()
        warm = solve_milp(changed, start=basis)
        assert cold_calls == []         # neither the root nor a child fell back
        cold = solve_milp(changed)
        assert warm.status == cold.status == SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.objective == pytest.approx(scipy_milp_optimum(changed),
                                               abs=1e-7)
        solved += 1
    assert solved == 40


def test_a_start_of_another_shape_goes_cold(cold_calls):
    # a start over other columns, and one with more rows than the problem
    prob = presolve_milp(700)
    other = next(presolve_milp(seed) for seed in itertools.count(701)
                 if presolve_milp(seed).num_vars != prob.num_vars)
    longer = with_rows(prob, [(np.ones(prob.num_vars), -1, 100.0)])
    cold = solve_milp(prob)
    for stranger in (solve_milp(other).basis,
                     solve_milp(longer).basis):
        cold_calls.clear()
        sol = solve_milp(prob, start=stranger)
        assert len(cold_calls) >= 1 and not sol.warm
        # the start is ignored, so the solve repeats the cold one exactly
        assert (sol.iterations, sol.nodes) == (cold.iterations, cold.nodes)
        assert sol.objective == pytest.approx(scipy_milp_optimum(prob),
                                              abs=1e-7)


def test_builder_refuses_an_oversized_problem_before_allocating(monkeypatch):
    pb = ProblemBuilder()
    for j in range(20):
        pb.add_var(f"x{j}")
    for i in range(30):
        pb.add_row([(i % 20, 1.0), ((i + 1) % 20, 2.0)], "<=", 1.0)
    built = pb.build()
    assert built.A[3, 3] == 1.0 and built.A[3, 4] == 2.0
    assert np.count_nonzero(built.A) == 60
    monkeypatch.setattr(solver, "_MAX_DENSE_BYTES", 8 * 30 * (20 + 30) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLargeError, match="30 rows"):
            pb.build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 30 * 20


# ---------------------------------------------------------------------------
# Starts from problems with other rows


def with_rows(prob, rows):
    """``prob`` with rows appended: each (coefficients over every
    column, sense code, right-hand side)."""
    return dataclasses.replace(
        prob, A=np.vstack([prob.A] + [a for a, _, _ in rows]),
        senses=np.append(prob.senses,
                         [s for _, s, _ in rows]).astype(np.int8),
        b=np.append(prob.b, [b for _, _, b in rows]))


def cover_rows(rng, n, k, empty=False):
    """k rows sum_{j in K} u_j >= 1 over random nonempty sets K of n
    columns (with ``empty``, the last one over no column)."""
    rows = []
    for i in range(k):
        a = (rng.random(n) < 0.35).astype(float)
        if not a.any():
            a[rng.integers(n)] = 1.0
        if empty and i == k - 1:
            a[:] = 0.0
        rows.append((a, 1, 1.0))
    return rows


def test_changed_rows_are_presolved_again():
    # a start from the same rows with a shifted right-hand side is checked
    # against the problem's own data, not taken as the old optimum
    prob = presolve_milp(702)
    start = solve_milp(prob).basis
    looser = dataclasses.replace(prob, b=prob.b + 0.25)
    sol = solve_milp(looser, start=start)
    assert sol.objective == pytest.approx(scipy_milp_optimum(looser),
                                          abs=1e-7)


def test_a_start_whose_rows_are_not_a_prefix_is_presolved_again():
    # the start is a basis of other rows or bounds; whatever the warm
    # solve makes of it is checked against the problem's own data
    prob = presolve_milp(700)
    first = solve_milp(prob)
    row = (np.ones(prob.num_vars), -1, 100.0)
    for other in (with_rows(dataclasses.replace(prob, b=prob.b + 0.25),
                            [row]),
                  with_rows(dataclasses.replace(
                      prob, upper=prob.upper + 1.0), [row]),
                  dataclasses.replace(prob, A=prob.A[1:], b=prob.b[1:],
                                      senses=prob.senses[1:])):
        sol = solve_milp(other, start=first.basis)
        assert sol.objective == pytest.approx(scipy_milp_optimum(other),
                                              abs=1e-7)


# ---------------------------------------------------------------------------
# One start rule: a start of the problem's own shape, or none


def leading(prob, n, m):
    """The problem of ``prob``'s first n columns and first m rows."""
    return dataclasses.replace(
        prob, c=prob.c[:n], A=prob.A[:m, :n], senses=prob.senses[:m],
        b=prob.b[:m], lower=prob.lower[:n], upper=prob.upper[:n],
        integer=prob.integer[:n], var_names=prob.var_names[:n],
        row_names=prob.row_names[:m])


def nested_problem(seed: int, n=8, m=7, integers=0):
    """A random problem of every sense over boxes around zero, whose
    first ``integers`` columns are binary.  Its rows hold at a point
    that is zero on the last three columns, so every problem of its
    leading columns and rows (``leading``) is feasible too."""
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.0, 2.0, n)
    upper = rng.uniform(1.0, 5.0, n)
    lower[:integers], upper[:integers] = 0.0, 1.0
    point = rng.uniform(lower, upper)
    point[:integers] = rng.integers(0, 2, integers)
    point[n - 3:] = 0.0
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    senses = rng.choice([-1, 0, 1], size=m, p=[0.45, 0.1, 0.45])
    slack = rng.uniform(0.0, 2.0, m)
    return MilpProblem(c=rng.normal(size=n), A=A,
                       senses=senses.astype(np.int8),
                       b=A @ point - senses * slack, lower=lower, upper=upper,
                       integer=np.arange(n) < integers)


SMALLER = {"rows": lambda n, m: (n, m - 2), "columns": lambda n, m: (n - 3, m),
           "both": lambda n, m: (n - 3, m - 2)}


def test_starts_neither_primal_nor_dual_feasible_finish_warm(cold_calls):
    # the problem's own optimal basis, under new costs and two tightened
    # bounds: kept where that start is neither primal nor dual feasible,
    # so that the dual simplex runs under shifted costs; every one is
    # answered warm, and every answer is linprog's
    rng = np.random.default_rng(74)
    neither = 0
    for seed in range(1200, 1400):
        prob = nested_problem(seed)
        first = solve_lp(prob)
        assert first.status == SolveStatus.OPTIMAL
        changed = changed_bounds(
            dataclasses.replace(prob, c=rng.normal(size=prob.num_vars)),
            rng, "tighten")
        if not neither_feasible(changed, first.basis):
            continue
        neither += 1
        cold_calls.clear()
        sol = solve_lp(changed, start=first.basis)
        assert sol.warm and cold_calls == []
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
        scipy_check(changed, sol)
    assert neither >= 100


def test_a_start_with_more_columns_or_rows_goes_cold(cold_calls):
    # a start with more, or fewer, columns, rows or both than the
    # problem is ignored, so the solve repeats the cold one exactly
    for entry, big in ((solve_lp, nested_problem(1000)),
                       (solve_milp, nested_problem(1100, integers=4))):
        start = entry(big).basis
        for kind, shape in SMALLER.items():
            small = leading(big, *shape(8, 7))
            for problem, other in ((small, start),
                                   (big, entry(small).basis)):
                cold_calls.clear()
                cold = entry(problem)
                slack_starts = len(cold_calls)
                cold_calls.clear()
                sol = entry(problem, start=other)
                assert len(cold_calls) == slack_starts and not sol.warm
                assert (sol.iterations, sol.nodes, sol.objective) == (
                    cold.iterations, cold.nodes, cold.objective), kind


# ---------------------------------------------------------------------------
# The shared pivot loop's anti-cycling and refactor branches


@pytest.fixture
def loop_branches(monkeypatch):
    """Which steps ran under Bland's rule ("primal", "dual"), and how
    many times B was re-inverted ("refactors")."""
    seen = {"primal": 0, "dual": 0, "refactors": 0}
    primal = solver._Simplex._primal_step
    dual = solver._Simplex._dual_step
    refactor = solver._Simplex._refactor

    def primal_step(sx, tol, bland):
        seen["primal"] += bland
        return primal(sx, tol, bland)

    def dual_step(sx, bland):
        seen["dual"] += bland
        return dual(sx, bland)

    def refactored(sx):
        seen["refactors"] += 1
        return refactor(sx)

    monkeypatch.setattr(solver._Simplex, "_primal_step", primal_step)
    monkeypatch.setattr(solver._Simplex, "_dual_step", dual_step)
    monkeypatch.setattr(solver._Simplex, "_refactor", refactored)
    return seen


def slack_and_held_lps():
    """(problem, start) pairs: the random LPs of
    test_random_lps_match_scipy with no start, as given and with every
    row met at the lower bounds (as in
    test_a_cold_solve_starts_from_the_slack_basis, so that the primal
    simplex starts on degenerate steps), and the held starts of
    test_starts_neither_primal_nor_dual_feasible_finish_warm, each the
    problem's own optimal basis under new costs and tightened bounds."""
    cases = [(at, None) for prob in map(random_lp, range(40))
             for at in (prob, dataclasses.replace(prob,
                                                  b=prob.A @ prob.lower))]
    rng = np.random.default_rng(74)
    for seed in range(1200, 1300):
        prob = nested_problem(seed)
        first = solve_lp(prob)
        changed = changed_bounds(
            dataclasses.replace(prob, c=rng.normal(size=prob.num_vars)),
            rng, "tighten")
        cases.append((changed, first.basis))
    return cases


@pytest.mark.parametrize("constant, value", [("_BLAND_AFTER", 0),
                                             ("_REFACTOR_EVERY", 1)])
def test_bland_and_refactor_branches_match_scipy(monkeypatch, loop_branches,
                                                 constant, value):
    # the LPs of slack_and_held_lps, with Bland's rule from the first
    # degenerate step, or B re-inverted after every pivot: each answer
    # is still linprog's, and each held start answers warm
    monkeypatch.setattr(solver, constant, value)
    problems = slack_and_held_lps()
    solved = [solve_lp(prob, start=start) for prob, start in problems]
    pivots = 0
    for (prob, start), sol in zip(problems, solved):
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                              SolveStatus.UNBOUNDED)
        assert sol.warm == (start is not None)
        scipy_check(prob, sol)
        pivots += sol.iterations
    if constant == "_BLAND_AFTER":
        assert loop_branches["primal"] >= 1 and loop_branches["dual"] >= 1
    else:
        assert loop_branches["refactors"] >= pivots > 0


@pytest.mark.parametrize("constant, value", [(None, None),
                                             ("_BLAND_AFTER", 0),
                                             ("_REFACTOR_EVERY", 1)])
def test_every_primal_optimum_is_claimed_on_rederived_values(
        monkeypatch, constant, value):
    # _verified_optimum tests only the bounds of the basics: it relies on
    # iterate() returning OPTIMAL only on values re-derived from the
    # original data at the basis, where no reduced cost prices in.  The
    # LPs of slack_and_held_lps, from the slack basis and from held
    # starts, each of which answers warm, under the default loop
    # constants and as patched in
    # test_bland_and_refactor_branches_match_scipy
    if constant is not None:
        monkeypatch.setattr(solver, constant, value)
    optima = []
    iterate = solver._Simplex.iterate

    def recorded(sx):
        status = iterate(sx)
        if status == SolveStatus.OPTIMAL:
            optima.append(sx.derived
                          and not sx._candidates(sx.pricing_tol()).any())
        return status

    monkeypatch.setattr(solver._Simplex, "iterate", recorded)
    for prob, start in slack_and_held_lps():
        assert solve_lp(prob, start=start).warm == (start is not None)
    assert len(optima) >= 150 and all(optima)
