"""Bounded-variable simplex and branch-and-bound correctness.

The independent references here are exhaustive enumeration (every
binary assignment solved as an LP) and scipy.optimize.linprog and
milp, which are test-only dependencies.  Warm re-solves from a basis
are checked against cold solves of the same problem.
"""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from equiprune import (InputError, MilpProblem, ProblemBuilder,
                       ProblemTooLargeError, SolverFailureError, SolveStatus,
                       SolverOptions, dump_lp, lp_format_text, solve_lp,
                       solve_milp, solver)


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


def test_a_start_on_every_row_skips_phase_1():
    for seed in range(40):
        prob = random_lp(seed)
        # the starting point, the lower bounds, lies on every row
        at = prob.A @ prob.lower
        prob = dataclasses.replace(prob, b=at)
        n, m = prob.num_vars, prob.num_rows
        sx = solver._Simplex(solver._Columns(*solver._prepare(prob)),
                             prob.lower, prob.upper, SolverOptions())
        assert list(sx.basis) == list(range(n, n + m))      # the slacks
        assert sx.iterate(SolverOptions().max_iterations) \
            == SolveStatus.OPTIMAL and sx.iterations == 0
        scipy_check(prob, solve_lp(prob))
        # off one row, phase 1 starts from the artificials
        off = dataclasses.replace(prob, b=at + (np.arange(m) == 0))
        sx = solver._Simplex(solver._Columns(*solver._prepare(off)),
                             off.lower, off.upper, SolverOptions())
        assert list(sx.basis) == list(range(n + m, n + 2 * m))
        scipy_check(off, solve_lp(off))


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
    # Two independent blocks.  In the first, the nearly parallel rows
    # x1 + y1 <= 1 and x1 + 1.001 y1 >= 1.0005 force y1 >= 0.5; with
    # upper(y1) lowered 5e-7 below that, the dual simplex stops on y1's
    # row, but its Farkas multipliers are about 1e3 while the rows miss
    # by only 5e-10, below the cut at which a cold phase 1 calls an LP
    # empty: it cannot confirm.  The second block, x2 + y2 <= 1 with
    # lower(x2) raised by 2e-7, is empty beyond that cut, so the cold
    # fallback finds the LP infeasible.
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


def test_mixed_coefficient_row_just_out_of_reach_is_infeasible():
    # min -y + z  s.t.  1e-3 x + 1e-3 y + z <= 1e-3,  x >= 1 + 5e-7: the
    # row misses by 5e-10, which z could absorb by moving 5e-10 but phase
    # 2 puts on y, 5e-7 below its bound.  Both verdicts count the
    # leftover in units of the smallest coefficient, so the LP is empty.
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


def test_solve_lp_from_a_start_matches_cold_and_scipy(cold_calls):
    rng = np.random.default_rng(17)
    verdicts = {"warm": [], "fell back": []}
    for seed in range(600, 660):
        prob = random_lp(seed, anchored=True)
        prob = dataclasses.replace(prob, lower=prob.lower - 1.0)
        root = solve_lp(prob)
        if root.status != SolveStatus.OPTIMAL:
            continue
        for kind in ("tighten", "loosen", "mixed"):
            changed = changed_bounds(prob, rng, kind)
            cold_calls.clear()
            warm = solve_lp(changed, start=root.basis)
            verdicts["fell back" if cold_calls else "warm"].append(
                warm.status)
            scipy_check(changed, warm)
            cold = solve_lp(changed)
            assert warm.status == cold.status
            if cold.status == SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective,
                                                       abs=1e-7)
    # most re-solves finish warm; an empty one only on a Farkas row
    assert verdicts["warm"].count(SolveStatus.OPTIMAL) >= 100
    assert verdicts["warm"].count(SolveStatus.INFEASIBLE) >= 15
    assert len(verdicts["fell back"]) >= 5


def test_solve_lp_from_a_dual_infeasible_start_goes_cold(cold_calls):
    # min -x  s.t.  x + y <= 4: x rests at its upper bound 2 at the
    # optimum; without that bound the start's reduced cost on x has the
    # wrong sign for its other bound, so the re-solve must go cold
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
    assert len(cold_calls) == 1
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == -4.0
    scipy_check(free, sol)


def test_solve_lp_start_of_another_shape_is_ignored(cold_calls):
    prob = random_lp(3, anchored=True)
    other = solve_lp(random_lp(4, m=3, anchored=True))
    cold_calls.clear()
    sol = solve_lp(prob, start=other.basis)
    assert len(cold_calls) == 1
    assert sol.objective == pytest.approx(solve_lp(prob).objective)


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


# ---------------------------------------------------------------------------
# Warm roots after an objective change


def primal_warm_resolve(prob, start):
    cols = solver._Columns(*solver._prepare(prob))
    return solver._primal_warm_solve(cols, prob.lower, prob.upper, start,
                                     SolverOptions())


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
        warm = primal_warm_resolve(changed, root.basis)
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
        if first.root_basis is None:    # the relaxation is empty
            assert first.status == SolveStatus.INFEASIBLE
            continue
        changed = dataclasses.replace(
            prob, c=rng.integers(-3, 4, size=prob.num_vars).astype(float))
        cold_calls.clear()
        warm = solve_milp(changed, start=first.root_basis)
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
    status = np.zeros(n + 2 * m, dtype=np.int8)
    status[basic] = solver._BASIC
    cold_calls.clear()
    warm = primal_warm_resolve(prob, solver.Basis(basic, status))
    assert len(cold_calls) == 1
    cold = solve_lp(prob)
    assert warm.status == cold.status == SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_warm_root_from_an_infeasible_start_falls_back(cold_calls):
    fell_back = 0
    for seed in range(400, 440):
        pair = tightened_pair(seed)
        if pair is None:
            continue
        prob, root, down, _ = pair
        j = int(np.argmax(root.x - prob.lower))
        if j not in root.basis.basic:
            continue
        # j is basic at root.x[j], above its tightened upper bound
        tightened = dataclasses.replace(prob, lower=down[0], upper=down[1])
        cold_calls.clear()
        warm = primal_warm_resolve(tightened, root.basis)
        assert len(cold_calls) == 1
        cold = solve_lp(tightened)
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        fell_back += 1
    assert fell_back >= 5


# ---------------------------------------------------------------------------
# Numerically singular bases and oversized problems


def test_numerically_singular_basis_is_not_factored():
    # One structural column twice: B is singular, but roundoff often
    # leaves np.linalg.inv a tiny nonzero pivot and a B^{-1} with
    # entries near 1e16 instead of an error.
    prob = random_lp(400)
    n, m = prob.num_vars, prob.num_rows
    cols = solver._Columns(*solver._prepare(prob))
    status = np.zeros(n + 2 * m, dtype=np.int8)
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
    m = n = 20_000     # [A I I] alone would take 9.6 GB
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
# Presolve


COEFFICIENTS = (-3.0, -2.0, -1.5, -0.5, 0.5, 2.0, 3.0)


def presolve_milp(seed: int, contradict: bool = False):
    """A small MILP that every presolve reduction applies to, feasible at
    a random anchor point unless ``contradict``: fixed columns of both
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
    reduced = 0
    for seed in range(700, 760):
        prob = presolve_milp(seed)
        sol = solve_milp(prob)
        ref = scipy_milp_optimum(prob)
        brute = brute_force_mip(prob)
        assert ref is not None          # feasible at its anchor
        assert brute == pytest.approx(ref, abs=1e-7)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(ref, abs=1e-7)
        assert sol.best_bound == pytest.approx(ref, abs=1e-7)
        assert sol.x.shape == (prob.num_vars,)
        assert prob.c @ sol.x == pytest.approx(sol.objective, abs=1e-9)
        reduced += sol.solved_cols < prob.num_vars - 2
    assert reduced >= 40


def test_contradicting_parallel_rows_are_infeasible_in_presolve():
    for seed in range(760, 800):
        prob = presolve_milp(seed, contradict=True)
        assert solver._presolve(prob, SolverOptions()) is None
        sol = solve_milp(prob)
        assert sol.status == SolveStatus.INFEASIBLE
        assert (sol.solved_rows, sol.solved_cols) == (0, 0)
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
    assert (sol.solved_rows, sol.solved_cols) == (0, 0)
    assert list(sol.x) == [1.5, 1.0]
    assert sol.objective == sol.best_bound == -2.0
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
    reduced = solver._presolve(prob, SolverOptions()).reduced
    assert list(reduced.lower) == [0.0, 0.0]    # u is fixed at 1 and gone
    assert list(reduced.upper) == [2.0, 4.0]
    sol = solve_milp(prob)
    assert sol.solved_cols == 2
    assert list(sol.x) == [1.0, 2.0, 1.5]
    assert sol.objective == pytest.approx(scipy_milp_optimum(prob), abs=1e-9)


def test_doubleton_substitution_moves_bounds_and_objective():
    # 2x - 3y = 1 with y continuous in [0, 1]: presolve drops y (the larger
    # coefficient), so x = (1 + 3y) / 2 must stay in [0.5, 2]
    pb = ProblemBuilder()
    x = pb.add_var("x", lo=0.0, up=5.0, obj=1.0)
    y = pb.add_var("y", lo=0.0, up=1.0, obj=-4.0)
    pb.add_row([(x, 2.0), (y, -3.0)], "==", 1.0)
    prob = pb.build()
    presolved = solver._presolve(prob, SolverOptions())
    assert presolved.reduced.num_vars == 1
    assert presolved.reduced.lower[0] == 0.5
    assert presolved.reduced.upper[0] == 2.0
    sol = solve_milp(prob)
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-12)
    assert sol.objective == pytest.approx(-2.0, abs=1e-12)


def test_oracle_style_flows_reduce_to_the_indicator():
    # z_root = 1, z_left + z_right = z_root, z_left <= 1 - mu, z_right <= mu:
    # every flow goes, and the left/right rows become the equality
    # z_right = mu that removes the last one
    pb = ProblemBuilder(maximize=True)
    root = pb.add_var("z0", lo=0.0, up=1.0)
    left = pb.add_var("z1", lo=0.0, up=1.0, obj=1.0)
    right = pb.add_var("z2", lo=0.0, up=1.0, obj=-2.0)
    mu = pb.add_var("mu", lo=0.0, up=1.0, integer=True)
    pb.add_row([(root, 1.0)], "==", 1.0)
    pb.add_row([(left, 1.0), (right, 1.0), (root, -1.0)], "==", 0.0)
    pb.add_row([(left, 1.0), (mu, 1.0)], "<=", 1.0)
    pb.add_row([(right, 1.0), (mu, -1.0)], "<=", 0.0)
    sol = solve_milp(pb.build())
    assert (sol.solved_rows, sol.solved_cols) == (0, 1)
    assert list(sol.x) == [1.0, 1.0, 0.0, 0.0]
    assert sol.objective == 1.0


def test_warm_root_from_a_reduced_basis_matches_cold(cold_calls):
    rng = np.random.default_rng(63)
    solved = 0
    for seed in range(700, 740):
        prob = presolve_milp(seed)
        first = solve_milp(prob)
        basis = first.root_basis
        assert basis.basic.shape == (first.solved_rows,)
        assert basis.status.shape == (first.solved_cols
                                      + 2 * first.solved_rows,)
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
    prob = presolve_milp(700)
    other = solve_milp(presolve_milp(701)).root_basis
    stranger = solver.Basis(other.basic, other.status)
    assert not solver._presolve(prob, SolverOptions()).fits(stranger)
    cold_calls.clear()
    sol = solve_milp(prob, start=stranger)
    assert len(cold_calls) >= 1
    assert sol.objective == pytest.approx(scipy_milp_optimum(prob), abs=1e-7)


def test_changed_rows_are_presolved_again():
    prob = presolve_milp(702)
    start = solve_milp(prob).root_basis
    looser = dataclasses.replace(prob, b=prob.b + 0.25)
    sol = solve_milp(looser, start=start)
    assert sol.objective == pytest.approx(scipy_milp_optimum(looser),
                                          abs=1e-7)


def test_postsolve_miss_raises(monkeypatch):
    prob = presolve_milp(703)
    presolve = solver._presolve

    def shifted(problem, opts):
        presolved = presolve(problem, opts)
        presolved.q[presolved.col < 0] += 1e-3
        return presolved

    monkeypatch.setattr(solver, "_presolve", shifted)
    with pytest.raises(SolverFailureError, match="postsolved"):
        solve_milp(prob)


def test_builder_refuses_an_oversized_problem_before_allocating(monkeypatch):
    pb = ProblemBuilder()
    for j in range(20):
        pb.add_var(f"x{j}")
    for i in range(30):
        pb.add_row([(i % 20, 1.0), ((i + 1) % 20, 2.0)], "<=", 1.0)
    built = pb.build()
    assert built.A[3, 3] == 1.0 and built.A[3, 4] == 2.0
    assert np.count_nonzero(built.A) == 60
    monkeypatch.setattr(solver, "_MAX_DENSE_BYTES", 8 * 30 * (20 + 60) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLargeError, match="30 rows"):
            pb.build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 30 * 20
