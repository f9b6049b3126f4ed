"""Self-contained linear and mixed-integer linear programming.

LPs are solved by a bounded-variable revised simplex over the columns
[A I], the variables and one slack per row, that keeps the basis
inverse B^{-1} explicitly: an entering column is B^{-1} a_j, the pivot
row of the ratio tests is row r of B^{-1} times the columns, and a pivot
is a rank-1 update of B^{-1} and of the reduced costs.  Every solve
starts from a basis and its factor (B^{-1} and the reduced costs
there).  A held start is, in branch and bound, the optimal basis of the
node that spawned the LP, factored once for both children; at the root,
the ``basis`` of an earlier solve of a problem with this problem's
columns and rows, under any bounds and objective.  A start of another
shape is ignored.  With no start held, the solve starts from the slack
basis B = I, which is never singular.  Every nonbasic rests at its
recorded status.

Every LP is solved by ``_solve`` and every start finishes by one route
(``_finish``).  If the basics lie within their bounds, the primal
simplex finishes from there, with Dantzig pricing and a bounded-variable
ratio test with bound flips.  Otherwise the cost of each nonbasic that
prices in is shifted until its reduced cost is zero, which makes the
start dual feasible; a bounded dual simplex brings the basics within
their bounds, the costs are restored, and the primal simplex finishes
(Koberstein, *The dual simplex method*, 2005).  Primal and dual steps
share one pivot loop (``_Simplex._run``), which holds the pivot cap,
switches to Bland's rule after degenerate stalls and re-inverts B at a
fixed cadence.

B^{-1}, the basic values and the reduced costs are re-derived from the
original data at regular intervals and before any claim of optimality,
so an optimum is claimed only where no reduced cost re-derived at its
basis prices in; a returned optimum's basics, re-derived too, are
checked against their bounds, independently of the (possibly drifted)
updates, and basics the check finds outside them go through the dual
simplex again.  The dual simplex stops on a row whose basic no point
inside the other bounds brings back within its bounds; the LP is
infeasible when that Farkas row, recomputed from the original data,
shows that no point inside the bounds satisfies the rows, and the basis
that holds the row is kept as a start for the next solve.  A held start
that fails -- a singular (or ill-conditioned) factor or refactor, the
iteration cap, an unbounded primal, a failed check, an unconfirmed
Farkas row -- sends the LP to the slack basis once.

Integer restrictions are handled by best-bound branch and bound on the
LP relaxation with most-fractional branching.  When every variable is
integer and every cost an integer, a node is pruned once its bound,
rounded up, reaches the incumbent.  A MILP is solved as it is given,
so its builder leaves out what the rows determine.  An LP is a MILP
without integer columns: ``solve_lp`` is ``solve_milp`` on the
relaxation, whose root is its answer.  Both return one ``Solution``,
whose ``basis``, the root's, is a start for the root of a later solve,
LP or MILP, of the same columns and rows under other bounds or another
objective.  No external solver is involved; numpy supplies the linear
algebra.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ProblemTooLargeError, SolverFailureError


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


_SENSE_CODE = {"<=": -1, "==": 0, ">=": 1}
_SENSE_TEXT = {-1: "<=", 0: "=", 1: ">="}


@dataclass
class MilpProblem:
    """min (or max) c'x  s.t.  A x {<=,==,>=} b,  lower <= x <= upper,
    x_j integral where ``integer[j]``."""

    c: np.ndarray
    A: np.ndarray
    senses: np.ndarray          # int8 per row: -1 '<=', 0 '==', +1 '>='
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray         # bool per variable
    maximize: bool = False
    var_names: list[str] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_rows(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the solver's columns (the variables, then
    one slack per row): the basic column of each row and every column's
    status (at lower, at upper, basic or free)."""

    basic: np.ndarray           # int, one per row
    status: np.ndarray          # int8, one per column


@dataclass
class Solution:
    """What ``solve_milp`` (and so ``solve_lp``) returns, and what one
    LP of it returns inside the solver."""

    status: SolveStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int             # simplex pivots over every LP of the solve
    nodes: int = 0              # branch-and-bound nodes expanded
    # a start for a later solve of the same columns and rows (see
    # ``solve_milp``): the optimal basis of the root relaxation, or on an
    # INFEASIBLE root the basis whose Farkas row proved it empty
    basis: Basis | None = None
    # the root relaxation was answered from ``start``, without falling
    # back to the slack basis
    warm: bool = False


class ProblemBuilder:
    """Incremental construction of a MilpProblem."""

    def __init__(self, maximize: bool = False):
        self.maximize = maximize
        self._obj: list[float] = []
        self._lo: list[float] = []
        self._up: list[float] = []
        self._int: list[bool] = []
        self._var_names: list[str] = []
        # A as COO triplets; each row's terms are summed before they land
        self._entry_row: list[int] = []
        self._entry_col: list[int] = []
        self._entry_val: list[float] = []
        self._senses: list[int] = []
        self._rhs: list[float] = []
        self._row_names: list[str] = []

    @property
    def num_vars(self) -> int:
        return len(self._obj)

    def add_var(self, name: str | None = None, lo: float = 0.0,
                up: float = np.inf, obj: float = 0.0,
                integer: bool = False) -> int:
        if lo > up:
            raise ValueError(f"variable {name or len(self._obj)}: lo > up")
        j = len(self._obj)
        self._obj.append(float(obj))
        self._lo.append(float(lo))
        self._up.append(float(up))
        self._int.append(bool(integer))
        self._var_names.append(name if name is not None else f"x{j}")
        return j

    def add_row(self, terms: Iterable[tuple[int, float]], sense: str,
                rhs: float, name: str | None = None) -> int:
        if sense not in _SENSE_CODE:
            raise ValueError(f"unknown sense {sense!r}")
        coeffs: dict[int, float] = {}
        for j, a in terms:
            if not 0 <= j < len(self._obj):
                raise ValueError(f"row references unknown variable {j}")
            coeffs[j] = coeffs.get(j, 0.0) + float(a)
        i = len(self._rhs)
        self._entry_row.extend([i] * len(coeffs))
        self._entry_col.extend(coeffs)
        self._entry_val.extend(coeffs.values())
        self._senses.append(_SENSE_CODE[sense])
        self._rhs.append(float(rhs))
        self._row_names.append(name if name is not None else f"c{i}")
        return i

    def build(self) -> MilpProblem:
        n = len(self._obj)
        m = len(self._rhs)
        _check_size(m, n)
        A = np.zeros((m, n))
        A[np.array(self._entry_row, dtype=np.intp),
          np.array(self._entry_col, dtype=np.intp)] = self._entry_val
        return MilpProblem(c=np.array(self._obj), A=A,
                           senses=np.array(self._senses, dtype=np.int8),
                           b=np.array(self._rhs),
                           lower=np.array(self._lo), upper=np.array(self._up),
                           integer=np.array(self._int, dtype=bool),
                           maximize=self.maximize,
                           var_names=list(self._var_names),
                           row_names=list(self._row_names))


# ---------------------------------------------------------------------------
# Bounded-variable revised simplex on an explicit basis inverse, from a
# held basis or the slack basis: primal, or a bounded dual under shifted
# costs followed by primal

_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3
# By status: may a nonbasic column rise from its value, or fall?
_MAY_RISE = np.array([True, False, False, True])
_MAY_FALL = np.array([False, True, False, True])

# How far a value may lie outside its bounds: a basic in the dual
# simplex and in the test that sends a start to it, and (times
# 1 + max|b|) a returned solution.  The cut of ``_farkas_confirms`` is
# a fraction of it.
_TOL_FEAS = 1e-7
# A relaxation value this close to an integer counts as integral, and a
# bound this far above one rounds down to it (see ``solve_milp``).
_TOL_INT = 1e-6
# A node whose bound is within this of the incumbent cannot improve it.
_TOL_GAP = 1e-9
# A reduced cost beyond this times 1 + max|c| prices its column in
# (``_Simplex.pricing_tol``).  Scaled, since roundoff in d grows with
# the costs.
_TOL_COST = 1e-9
# Pivot column and row entries of at most this magnitude are zeros in
# the ratio tests and in a Farkas row; in the dual ratio test, of at
# most this times the pivot row's largest |entry|, when that exceeds 1.
_TOL_PIVOT = 1e-9
# Pivots one solve from one start may make, dual and primal together,
# before ``_Simplex._run`` ends it with ITERATION_LIMIT (a held start
# that reaches it falls back to the slack basis).
_MAX_PIVOTS = 50_000
# Branch-and-bound nodes one MILP may expand before ITERATION_LIMIT.
_MAX_NODES = 100_000
# Pivots between exact re-inversions of B from the original data, which
# bound the drift of the rank-1 updates.
_REFACTOR_EVERY = 60
# Ratio-test tie window: steps within this of the shortest count as tied,
# and the tie is broken by the largest pivot magnitude.
_RATIO_TIE = 1e-9
# A step no longer than this is degenerate; more than ``_BLAND_AFTER`` of
# them in a row switch to Bland's rule so that the loop cannot cycle.
_DEGENERATE_STEP = 1e-12
_BLAND_AFTER = 80
# ``_farkas_confirms`` takes a Farkas row as proof that the LP is empty
# only when every point inside the bounds leaves rows unmet by more, in
# total, than this fraction of _TOL_FEAS (times 1 + max|b|): a feasible
# problem is met to roundoff level (~1e-13 at these scales), and an
# empty one may miss by less than the per-variable tolerance of a
# returned solution.  A row
# with a coefficient below 1 counts its residual in units of its
# smallest one: a solve may absorb the residual in any variable of the
# row, and the check of a returned basis bounds how far that variable
# moves, not the row residual.
_FARKAS_EMPTY = 1e-2
# A basis whose 1-norm condition estimate ||B|| ||B^{-1}|| exceeds this is
# singular: np.linalg.inv raises only on an exactly zero pivot and leaves
# entries near 1e16 for a column held twice.  Bases of the test suite and
# the benchmark stay below 1e6.
_MAX_CONDITION = 1e12
# Largest column block [A I] (8m(n+m) bytes, no less than B^{-1}) that a
# problem may need; a larger one is refused before it is allocated.
_MAX_DENSE_BYTES = 1 << 30


def _check_size(m: int, n: int) -> None:
    """Refuse a problem of m rows and n variables whose dense solver
    arrays would exceed ``_MAX_DENSE_BYTES``."""
    size = 8 * m * (n + m)
    if size > _MAX_DENSE_BYTES:
        raise ProblemTooLargeError(
            f"a problem of {m} rows and {n} variables needs "
            f"{size / 2**30:.1f} GiB of dense solver arrays; the limit "
            f"is {_MAX_DENSE_BYTES / 2**30:.1f} GiB")


def _row_scale(A: np.ndarray) -> np.ndarray:
    """Per row, the unit of its residual in a Farkas confirmation:
    min(1, its smallest |coefficient| above ``_TOL_PIVOT``).  The ratio
    tests read smaller ones as zero, and dividing by one would
    overflow."""
    size = np.abs(A)
    return np.where(size > _TOL_PIVOT, size, 1.0).min(axis=1, initial=1.0)


@dataclass(frozen=True)
class _Factor:
    """B^{-1} and the reduced costs of the problem's objective at one
    basis, derived from the original data.  Several solves may start
    from one factor; each pivots on its own copy."""

    binv: np.ndarray
    d: np.ndarray


def _invert(A_all: np.ndarray, basic: np.ndarray,
            cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^{-1} of the columns ``basic`` and the reduced costs of ``cost``."""
    B = A_all[:, basic]
    try:
        binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"singular simplex basis: {exc}") from exc
    with np.errstate(over="ignore"):    # an overflow reads as singular
        condition = (np.abs(B).sum(axis=0).max(initial=0.0)
                     * np.abs(binv).sum(axis=0).max(initial=0.0))
    if not condition <= _MAX_CONDITION:
        raise SolverFailureError(
            f"numerically singular simplex basis (condition {condition:.3g})")
    return binv, cost - (cost[basic] @ binv) @ A_all


class _Columns:
    """The columns that every LP of one problem shares, [A I]: the
    variables, then one slack per row ('<=' slack in [0, inf), '>='
    slack in (-inf, 0], '==' slack fixed at 0), and the costs of the
    problem as a minimization."""

    def __init__(self, problem: MilpProblem):
        A = np.asarray(problem.A, dtype=float)
        m, n = A.shape
        _check_size(m, n)
        c = np.asarray(problem.c, dtype=float)
        senses = np.asarray(problem.senses, dtype=np.int8)
        self.m, self.n = m, n
        self.A = A
        self.A_all = np.hstack([A, np.eye(m)])
        self.b = np.asarray(problem.b, dtype=float)
        self.cost = np.concatenate([-c if problem.maximize else c,
                                    np.zeros(m)])
        self.slack_lo = np.where(senses == 1, -np.inf, 0.0)
        self.slack_up = np.where(senses == -1, np.inf, 0.0)
        self.row_scale = _row_scale(A)
        self.check_tol = _check_tol(self.b)

    def bounds(self, lo: np.ndarray,
               up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of every column, given those of the variables."""
        return (np.concatenate([lo, self.slack_lo]),
                np.concatenate([up, self.slack_up]))

    def factor(self, basis: Basis) -> _Factor | None:
        """The factor at ``basis``, a basis over these columns, or None
        when it is singular."""
        try:
            return _Factor(*_invert(self.A_all, basis.basic, self.cost))
        except SolverFailureError:
            return None

    def slack_start(self) -> tuple[Basis, _Factor]:
        """The slack basis, B = I, and its factor: B^{-1} = I, and as
        the slacks cost nothing, the reduced costs are the costs."""
        n, m = self.n, self.m
        status = np.full(n + m, _AT_LOWER, dtype=np.int8)
        status[n:] = _BASIC
        return (Basis(np.arange(n, n + m), status),
                _Factor(np.eye(m), self.cost))


class _Simplex:
    """One LP solve of min cc'x over the shared columns from ``start``
    and its ``factor``, with the basis inverse ``Binv`` kept explicitly:
    an entering column is Binv a_j, a pivot row is Binv[r] A_all, and a
    pivot is a rank-1 update of Binv and of the reduced-cost row d.  The
    solve pivots on its own copy of the factor, and every nonbasic
    column rests at the bound its status names.  ``cc`` is the
    problem's cost, shifted by ``_finish`` while the dual simplex runs.

    ``derived`` holds while xB and d are as re-derived from the original
    data at the current basis: ``_refactor`` and ``_rederive`` set it,
    and every pivot, bound flip or move of the nonbasics clears it."""

    def __init__(self, cols: _Columns, lo: np.ndarray, up: np.ndarray,
                 start: Basis, factor: _Factor):
        self.m, self.n, self.N = cols.m, cols.n, cols.n + cols.m
        self.A, self.A_all, self.b = cols.A, cols.A_all, cols.b
        self.cc = cols.cost
        self.row_scale = cols.row_scale
        self.check_tol = cols.check_tol
        self.lo, self.up = cols.bounds(lo, up)
        self.movable = self.up > self.lo    # fixed columns never enter
        self.iterations = 0
        self.basis = start.basic.astype(np.intp)
        self.Binv = factor.binv.copy()
        self.d = factor.d.copy()
        self._rest_nonbasics(start.status)

    def _rest_nonbasics(self, status: np.ndarray) -> None:
        """Rest each nonbasic at the bound ``status`` names, or at a
        finite one when that bound is infinite, and solve for the
        basics."""
        lo, up = self.lo, self.up
        stat = np.where((status == _AT_UPPER) & np.isfinite(up), _AT_UPPER,
                        np.where(np.isfinite(lo), _AT_LOWER,
                                 np.where(np.isfinite(up), _AT_UPPER, _FREE)))
        stat[self.basis] = _BASIC
        self.stat = stat
        self.val = np.where(stat == _AT_UPPER, up,
                            np.where(stat == _AT_LOWER, lo, 0.0))
        self.xB = self.Binv @ self._basic_rhs()
        self.derived = False

    # -- exact recomputation from original data ---------------------------

    def _basic_rhs(self) -> np.ndarray:
        """b minus the nonbasic columns at their values: B x_B equals it."""
        x_nb = self.val.copy()
        x_nb[self.basis] = 0.0
        return self.b - self.A_all @ x_nb

    def _refactor(self) -> None:
        """Re-invert B and re-derive the basic values and the reduced
        costs from the original data."""
        self.Binv, self.d = _invert(self.A_all, self.basis, self.cc)
        self.xB = self.Binv @ self._basic_rhs()
        self.derived = True

    def _rederive(self) -> None:
        """Re-derive the basic values and the reduced costs by solving
        with B from the original data, without the updated B^{-1}; two
        solves cost less than one inversion, and one stacked call (B x =
        rhs and B'y = c_B) gives the same bits as two."""
        B = self.A_all[:, self.basis]
        try:
            self.xB, y = np.linalg.solve(
                np.stack([B, B.T]),
                np.stack([self._basic_rhs(), self.cc[self.basis]])[:, :, None]
            )[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"singular simplex basis: {exc}") from exc
        self.d = self.cc - y @ self.A_all
        self.derived = True

    def assemble(self) -> np.ndarray:
        x = self.val.copy()
        x[self.basis] = self.xB
        return x

    # -- pivoting loops ----------------------------------------------------

    def _pivot_row(self, r: int) -> np.ndarray:
        """Row r of B^{-1} A_all, from the blocks [A I] of A_all."""
        v = self.Binv[r]
        return np.concatenate([v @ self.A, v])

    def pricing_tol(self) -> float:
        return _TOL_COST * (1.0 + np.abs(self.cc).max(initial=0.0))

    def _candidates(self, tol: float) -> np.ndarray:
        d, stat = self.d, self.stat
        return self.movable & ((_MAY_RISE[stat] & (d < -tol))
                               | (_MAY_FALL[stat] & (d > tol)))

    def _exchange(self, r: int, j: int, col: np.ndarray, row: np.ndarray,
                  enter_value: float, leave_at_upper: bool) -> None:
        """Column j, whose entering column Binv a_j is ``col``, replaces
        the basic of row r, which leaves at one of its bounds; ``row`` is
        the pivot row Binv[r] A_all.  Rank-1 update of Binv and d; ``col``
        is spent (its entry r is zeroed)."""
        leaving = int(self.basis[r])
        if leave_at_upper:
            self.stat[leaving] = _AT_UPPER
            self.val[leaving] = self.up[leaving]
        else:
            self.stat[leaving] = _AT_LOWER
            self.val[leaving] = self.lo[leaving]
        self.basis[r] = j
        self.stat[j] = _BASIC
        self.xB[r] = enter_value
        pivot = col[r]
        self.d -= (self.d[j] / pivot) * row
        self.d[j] = 0.0
        self.Binv[r] /= pivot
        col[r] = 0.0
        self.Binv -= col[:, None] * self.Binv[r]
        self.derived = False

    def _run(self, step: Callable[[bool], float | tuple[SolveStatus, int]]
             ) -> tuple[SolveStatus, int]:
        """Pivot by ``step`` until it ends the run, or (ITERATION_LIMIT,
        -1) after ``_MAX_PIVOTS`` pivots.  ``step(bland)`` prices, runs
        the ratio test and makes one pivot or bound flip, returning its
        step length, or returns an end (status, row).  An OPTIMAL or
        UNBOUNDED end on values not re-derived since they last moved is
        confirmed against the original data first (``_rederive``, or
        for UNBOUNDED a full ``_refactor``); an INFEASIBLE end stands,
        as ``_finish`` recomputes its Farkas row.  More than
        ``_BLAND_AFTER`` degenerate steps in a row switch the steps to
        Bland's rule until a step moves, and every ``_REFACTOR_EVERY``
        pivots B is re-inverted."""
        since_refactor = stall = 0
        while self.iterations < _MAX_PIVOTS:
            moved = step(stall > _BLAND_AFTER)
            if isinstance(moved, tuple):
                if self.derived or moved[0] == SolveStatus.INFEASIBLE:
                    return moved
                if moved[0] == SolveStatus.OPTIMAL:
                    self._rederive()
                else:
                    self._refactor()
                since_refactor = 0
                continue
            self.iterations += 1
            since_refactor += 1
            stall = stall + 1 if moved <= _DEGENERATE_STEP else 0
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0
        return SolveStatus.ITERATION_LIMIT, -1

    def iterate(self) -> SolveStatus:
        """The primal simplex: OPTIMAL, UNBOUNDED or ITERATION_LIMIT."""
        tol = self.pricing_tol()
        return self._run(lambda bland: self._primal_step(tol, bland))[0]

    def dual_iterate(self) -> tuple[SolveStatus, int]:
        """The bounded dual simplex from a dual feasible basis: (OPTIMAL,
        -1) once every basic lies within its bounds, leaving any reduced
        cost that drifted past tolerance to ``iterate``; (INFEASIBLE, r)
        when the basic of row r is out of bounds and no nonbasic column
        can move it back; or (ITERATION_LIMIT, -1)."""
        return self._run(self._dual_step)

    def _primal_step(self, tol: float,
                     bland: bool) -> float | tuple[SolveStatus, int]:
        """One primal pivot or bound flip: the column of largest |d| past
        ``tol`` enters, or under Bland's rule the first."""
        cand = self._candidates(tol)
        pick = cand if bland else np.where(cand, np.abs(self.d), 0.0)
        j = int(np.argmax(pick)) if self.N else 0
        if not (self.N and cand[j]):
            return SolveStatus.OPTIMAL, -1
        if self.stat[j] == _AT_UPPER or (self.stat[j] == _FREE
                                         and self.d[j] > 0):
            direction = -1.0
        else:
            direction = 1.0

        col = self.Binv @ self.A_all[:, j]
        delta = direction * col
        lo_B = self.lo[self.basis]
        up_B = self.up[self.basis]
        t_rows = np.full(self.m, np.inf)
        np.divide(self.xB - lo_B, delta, out=t_rows,
                  where=delta > _TOL_PIVOT)
        np.divide(up_B - self.xB, -delta, out=t_rows,
                  where=delta < -_TOL_PIVOT)
        np.maximum(t_rows, 0.0, out=t_rows)
        t_row = float(t_rows.min()) if self.m else np.inf
        span = self.up[j] - self.lo[j]
        t_flip = float(span) if np.isfinite(span) else np.inf

        if min(t_row, t_flip) == np.inf:
            return SolveStatus.UNBOUNDED, -1
        if t_flip <= t_row:
            # bound flip: no basis change
            self.xB -= direction * t_flip * col
            self.stat[j] = _AT_UPPER if direction > 0 else _AT_LOWER
            self.val[j] = self.up[j] if direction > 0 else self.lo[j]
            self.derived = False
            return t_flip
        rows = np.nonzero(t_rows <= t_row + _RATIO_TIE)[0]
        if bland:
            r = int(rows[np.argmin(self.basis[rows])])
        else:
            r = int(rows[np.argmax(np.abs(delta[rows]))])
        enter_value = self.val[j] + direction * t_row
        self.xB -= direction * t_row * col
        self._exchange(r, j, col, self._pivot_row(r),
                       enter_value, leave_at_upper=not delta[r] > 0)
        return t_row

    def _dual_step(self, bland: bool) -> float | tuple[SolveStatus, int]:
        """One dual pivot: the basic farthest outside its bounds leaves,
        or under Bland's rule the first outside them."""
        lo_B = self.lo[self.basis]
        up_B = self.up[self.basis]
        below = lo_B - self.xB
        infeas = np.maximum(below, self.xB - up_B)
        r = int(np.argmax(infeas))      # the row farthest outside
        if not infeas[r] > _TOL_FEAS:
            return SolveStatus.OPTIMAL, -1
        if bland:
            rows = np.nonzero(infeas > _TOL_FEAS)[0]
            r = int(rows[np.argmin(self.basis[rows])])
        to_lower = below[r] > 0
        # x_B[r] moves by -row[j] per unit step of column j; alpha is
        # signed so that a helpful step has alpha_j * dx_j < 0.  In a
        # large row, an entry small beside its largest is the residue of
        # a cancellation, not a pivot
        row = self._pivot_row(r)
        alpha = row if to_lower else -row
        size = np.abs(alpha)
        tol = _TOL_PIVOT * size.max(initial=1.0)
        stat = self.stat
        eligible = self.movable & ((_MAY_RISE[stat] & (alpha < -tol))
                                   | (_MAY_FALL[stat] & (alpha > tol)))
        if not eligible.any():
            return SolveStatus.INFEASIBLE, r
        # ratio test over every column, inf where not eligible
        d = self.d
        slack = np.where(stat == _AT_LOWER, d,
                         np.where(stat == _AT_UPPER, -d, np.abs(d)))
        ratios = np.full(self.N, np.inf)
        np.divide(np.maximum(slack, 0.0), size, out=ratios,
                  where=eligible)
        t = float(ratios.min())
        tied = ratios <= t + _RATIO_TIE
        q = int(np.argmax(tied if bland else np.where(tied, size, 0.0)))

        col = self.Binv @ self.A_all[:, q]
        target = lo_B[r] if to_lower else up_B[r]
        theta = (self.xB[r] - target) / col[r]
        enter_value = self.val[q] + theta
        self.xB -= theta * col
        self._exchange(r, q, col, row, enter_value,
                       leave_at_upper=not to_lower)
        return t


def _solve(cols: _Columns, lo: np.ndarray, up: np.ndarray,
           start: Basis | None = None,
           factor: _Factor | None = None) -> Solution:
    """Solve by ``_finish`` from ``start``, a basis of an earlier solve
    over these columns and rows, with its ``factor`` (factored here when
    not given), else from the slack basis.  A start of another shape is
    ignored.  One that is singular, or whose solve fails or ends
    UNBOUNDED or ITERATION_LIMIT, goes to the slack basis once, and its
    pivots are added to that solve's; the slack-basis solve has no
    fallback left, and raises when it fails."""
    if np.any(lo > up):
        return Solution(SolveStatus.INFEASIBLE, None, None, 0)
    if start is not None and (start.basic.size, start.status.size) != (
            cols.m, cols.n + cols.m):
        start = None
    pivots = 0
    if start is not None and factor is None:
        factor = cols.factor(start)
    if start is not None and factor is not None:
        sx = _Simplex(cols, lo, up, start, factor)
        try:
            sol = _finish(sx, held=True)
        except SolverFailureError:      # singular basis at a refactor
            sol = None
        if sol is not None and sol.status in (SolveStatus.OPTIMAL,
                                              SolveStatus.INFEASIBLE):
            sol.warm = True
            return sol
        pivots = sx.iterations
    sol = _finish(_Simplex(cols, lo, up, *cols.slack_start()), held=False)
    if sol is None:
        raise SolverFailureError(
            "simplex solution failed numerical verification")
    sol.iterations += pivots
    return sol


def _finish(sx: _Simplex, held: bool) -> Solution | None:
    """Finish a solve whose nonbasics rest at the start's statuses (see
    the module notes).  Basics outside their bounds go through the dual
    simplex first, under costs shifted until no nonbasic prices in, and
    the costs are restored before the primal simplex; a basic that the
    check of a claimed optimum finds outside its bounds sends the solve
    round again, up to three rounds.  INFEASIBLE needs a Farkas row
    that proves it (``_farkas_confirms``) and keeps the basis that holds
    the row.  UNBOUNDED and ITERATION_LIMIT are returned as they are;
    None when the Farkas row proves nothing or no round passes the
    check."""
    for _round in range(3):
        if _outside(sx).any():
            cost = sx.cc
            shift = np.where(sx._candidates(sx.pricing_tol()), sx.d, 0.0)
            sx.cc, sx.d = cost - shift, sx.d - shift
            status, r = sx.dual_iterate()
            sx.cc = cost
            if status == SolveStatus.INFEASIBLE:
                if not _farkas_confirms(sx, r, held):
                    return None
                return Solution(status, None, None, sx.iterations,
                                basis=_basis(sx))
            if status != SolveStatus.OPTIMAL:
                return Solution(status, None, None, sx.iterations)
            if shift.any():             # reduced costs of the restored costs
                sx._rederive()
        status = sx.iterate()
        if status != SolveStatus.OPTIMAL:
            return Solution(status, None, None, sx.iterations)
        if _verified_optimum(sx):
            return _optimal(sx)
    return None


def _outside(sx: _Simplex) -> np.ndarray:
    """Per row, whether its basic lies more than ``_TOL_FEAS`` outside
    its bounds."""
    return ((sx.xB < sx.lo[sx.basis] - _TOL_FEAS)
            | (sx.xB > sx.up[sx.basis] + _TOL_FEAS))


def _basis(sx: _Simplex) -> Basis:
    return Basis(sx.basis.copy(), sx.stat.astype(np.int8))


def _optimal(sx: _Simplex) -> Solution:
    x = sx.assemble()[:sx.n]
    return Solution(SolveStatus.OPTIMAL, x, float(sx.cc[:sx.n] @ x),
                    sx.iterations, basis=_basis(sx))


def _verified_optimum(sx: _Simplex) -> bool:
    """Check of a claimed optimum: every basic within its bounds, to the
    check tolerance.  ``iterate`` returns OPTIMAL only on values
    re-derived from the original data at this basis (``_Simplex._run``),
    where no reduced cost prices in."""
    lo_B = sx.lo[sx.basis]
    up_B = sx.up[sx.basis]
    tol = sx.check_tol
    return bool(np.all(sx.xB >= lo_B - tol) and np.all(sx.xB <= up_B + tol))


def _check_tol(b: np.ndarray) -> float:
    """How far a returned value may lie outside its bounds, or a row
    (through its slack) outside its side, for right-hand sides ``b``."""
    # every row's tolerance grows with the largest |b| (so does the
    # Farkas cut), so a program must keep its right-hand sides small
    return _TOL_FEAS * (1.0 + np.abs(b).max(initial=0.0))


def _farkas_gap(sx: _Simplex, r: int) -> tuple[np.ndarray, float]:
    """Row r of the basis, recomputed from the original data: y with
    B'y = e_r, and how far y'b lies outside the range of alpha'x over
    the bounds, where alpha = y'A_all with entries of magnitude at most
    _TOL_PIVOT taken as zero (negative when inside; -inf when B is
    singular).  Roundoff in a large y leaves residues where y is zero,
    and through a column with an infinite bound any residue hides the
    gap; so entries of y below machine precision times max|y|, which
    the solve cannot tell from zero, are zero.  alpha is 1 at the basic
    of row r, so the gap is how far that basic must leave its bounds
    while every other column keeps to its own."""
    e_r = np.zeros(sx.m)
    e_r[r] = 1.0
    try:
        y = np.linalg.solve(sx.A_all[:, sx.basis].T, e_r)
    except np.linalg.LinAlgError:
        return e_r, -np.inf
    y[np.abs(y) <= np.finfo(float).eps * np.abs(y).max()] = 0.0
    alpha = y @ sx.A_all
    alpha[np.abs(alpha) <= _TOL_PIVOT] = 0.0
    pos, neg = alpha > 0, alpha < 0
    low = alpha[pos] @ sx.lo[pos] + alpha[neg] @ sx.up[neg]
    high = alpha[pos] @ sx.up[pos] + alpha[neg] @ sx.lo[neg]
    rhs = y @ sx.b
    return y, float(max(low - rhs, rhs - high))


def _farkas_cut(b: np.ndarray) -> float:
    """The scaled residual above which a Farkas row proves the LP empty
    (see ``_farkas_confirms``)."""
    return _FARKAS_EMPTY * _TOL_FEAS * (1.0 + np.abs(b).max(initial=0.0))


def _farkas_confirms(sx: _Simplex, r: int, held: bool) -> bool:
    """Whether row r of the basis proves the LP empty: its gap
    (``_farkas_gap``) exceeds the cut of ``_farkas_cut`` times
    max_i |y_i| s_i, where s_i is row i's residual scale
    (``_row_scale``).  Since |y'(b - A_all x)| <= max_i |y_i| s_i *
    sum_i |b - A_all x|_i / s_i, every point inside the bounds then
    misses the rows by a scaled residual above the cut.  Unless the
    start was ``held``, a gap beyond the check tolerance proves it too:
    no point then passes the check of a returned solution, and the
    slack basis has no fallback left."""
    y, gap = _farkas_gap(sx, r)
    return bool(gap > _farkas_cut(sx.b) * np.abs(y * sx.row_scale).max()
                or not held and gap > sx.check_tol)


# ---------------------------------------------------------------------------
# Branch and bound


def solve_milp(problem: MilpProblem, start: Basis | None = None) -> Solution:
    """Best-bound branch and bound with most-fractional branching.

    ``start`` is the ``basis`` of an earlier solve, LP or MILP, of a
    problem with this problem's columns and rows, under any bounds and
    objective: the same problem re-bounded or re-priced; coefficients
    that changed cost only pivots.  ``_solve`` solves the root
    relaxation from it.  A start of another shape is ignored; without
    one, or when the solve from it fails, the root is solved from the
    slack basis, and a warm answer is checked against this problem's own
    data either way.
    ``warm`` tells whether the root was answered from ``start``, and
    ``basis`` is the root's, a start for the next solve.

    Node key is (bound, -depth, sequence): ties on the bound are broken
    by diving deeper first.  Children are solved eagerly so every heap
    entry carries a true LP bound.  A relaxation point whose integer
    block is exactly integral is an incumbent as it stands.  One that is
    integral only within tolerance becomes an incumbent only after
    re-solving with the integer block fixed to its rounding (its polish
    LP), which also makes its objective exact; if that rounding is
    infeasible (possible when a row weighs an integer column heavily, so
    that moving it by up to _TOL_INT moves the row past its side) the
    point is not trusted and the node is branched instead.

    With every variable integer and every cost an integer, every
    objective value is an integer, so a bound b prunes a node once
    ceil(b - _TOL_INT) reaches the incumbent.

    Each heap node keeps the optimal basis of its relaxation, and its
    children and its polish LP start from it: only bounds differ, so
    the basis stays dual feasible and the bounded dual simplex repairs
    it, usually in a few pivots.  The columns, slack bounds and costs
    are built once per problem, after ``_Columns`` checks the size, and
    a popped node's basis is factored once for both children, each
    pivoting on its own copy.
    """
    cols = _Columns(problem)
    int_idx = np.nonzero(problem.integer)[0]
    sign = -1.0 if problem.maximize else 1.0
    # every variable integer and every cost an integer: so is every
    # objective value, and a bound counts as the next integer up
    integral = bool(int_idx.size == cols.n
                    and np.all(cols.cost == np.round(cols.cost)))

    def fractionality(x: np.ndarray) -> np.ndarray:
        v = x[int_idx]
        return np.abs(v - np.round(v))

    def dominated(bound: float) -> bool:
        """Whether no point under a relaxation bound can improve the
        incumbent."""
        if integral:
            bound = np.ceil(bound - _TOL_INT)
        return bound >= inc_obj - _TOL_GAP

    iterations = 0
    nodes = 0
    incumbent: np.ndarray | None = None
    inc_obj = np.inf
    heap: list[tuple[float, int, int, np.ndarray, np.ndarray, np.ndarray,
                     Basis]] = []
    seq = itertools.count()

    def polish(relaxed: Solution) -> tuple[np.ndarray | None, float]:
        """Exact solution at the rounded integer assignment, or None
        when that assignment is infeasible."""
        nonlocal iterations
        fixed = np.round(relaxed.x[int_idx])
        sol = _solve(cols, _with(lo0, int_idx, fixed),
                     _with(up0, int_idx, fixed), relaxed.basis)
        iterations += sol.iterations
        if sol.status == SolveStatus.OPTIMAL:
            return sol.x, sol.objective
        return None, np.inf

    def offer(sol: Solution, lo: np.ndarray, up: np.ndarray,
              negdepth: int) -> None:
        """Turn a solved relaxation into an incumbent or a heap node."""
        nonlocal incumbent, inc_obj
        if dominated(sol.objective):
            return
        frac = fractionality(sol.x)
        if frac.max(initial=0.0) > _TOL_INT:
            heapq.heappush(heap, (sol.objective, negdepth, next(seq),
                                  lo, up, sol.x, sol.basis))
            return
        if not frac.any():
            # exactly integral: polishing would fix the integer block at
            # the values it has and return this verified point
            if sol.objective < inc_obj:
                incumbent, inc_obj = sol.x, sol.objective
            return
        px, pobj = polish(sol)
        if px is not None:
            if pobj < inc_obj:
                incumbent, inc_obj = px, pobj
        else:
            # rounding-infeasible: keep searching below this node
            heapq.heappush(heap, (sol.objective, negdepth, next(seq),
                                  lo, up, sol.x, sol.basis))

    lo0 = np.asarray(problem.lower, dtype=float)
    up0 = np.asarray(problem.upper, dtype=float)
    root = _solve(cols, lo0, up0, start)
    iterations += root.iterations
    if root.status != SolveStatus.OPTIMAL:
        return root

    status = SolveStatus.OPTIMAL
    offer(root, lo0, up0, 0)

    while heap:
        bound, negdepth, _, lo, up, x, basis = heapq.heappop(heap)
        if dominated(bound):
            break       # everything left is dominated
        if nodes >= _MAX_NODES:
            status = SolveStatus.ITERATION_LIMIT
            break
        nodes += 1
        frac = fractionality(x)
        frac[lo[int_idx] >= up[int_idx]] = -1.0  # never branch on fixed vars
        v = int(int_idx[np.argmax(frac)])
        if lo[v] >= up[v]:
            raise SolverFailureError("no free integer variable to branch on")
        floor_v = np.floor(x[v])
        if floor_v >= up[v]:  # x_v at its (integral) upper bound
            floor_v = up[v] - 1.0
        factor = cols.factor(basis)     # shared by both children
        for child_lo, child_up in (
                (lo, _with(up, v, floor_v)),
                (_with(lo, v, floor_v + 1.0), up)):
            sol = _solve(cols, child_lo, child_up, basis, factor)
            iterations += sol.iterations
            if sol.status == SolveStatus.INFEASIBLE:
                continue
            if sol.status == SolveStatus.ITERATION_LIMIT:
                status = SolveStatus.ITERATION_LIMIT
                heap.clear()
                break
            if sol.status == SolveStatus.UNBOUNDED:
                raise SolverFailureError(
                    "bounded relaxation turned unbounded in a child node")
            offer(sol, child_lo, child_up, negdepth - 1)

    if status == SolveStatus.OPTIMAL and incumbent is None:
        status = SolveStatus.INFEASIBLE
    return Solution(status, incumbent,
                    None if incumbent is None else sign * inc_obj,
                    iterations, nodes, root.basis, root.warm)


def solve_lp(problem: MilpProblem, start: Basis | None = None) -> Solution:
    """The LP relaxation of ``problem``: ``solve_milp`` with every
    integrality flag cleared, where branch and bound returns the root as
    it stands (``nodes`` is 0).  ``start`` is taken as ``solve_milp``
    takes it, from an LP's ``basis`` or a MILP's."""
    return solve_milp(replace(problem, integer=np.zeros(problem.num_vars,
                                                          dtype=bool)),
                      start)


def _with(arr: np.ndarray, i: int | np.ndarray,
          value: float | np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[i] = value
    return out


# ---------------------------------------------------------------------------
# LP-format text dump (debugging aid)


def lp_format_text(problem: MilpProblem, name: str = "problem") -> str:
    def var(j: int) -> str:
        return problem.var_names[j] if problem.var_names else f"x{j}"

    def terms(coeffs: Sequence[float], indices: Iterable[int]) -> str:
        parts = []
        for j in indices:
            a = coeffs[j]
            sign = "-" if a < 0 else "+"
            parts.append(f"{sign} {abs(a):.12g} {var(j)}")
        return " ".join(parts) if parts else "0"

    lines = [f"\\ {name}",
             "Maximize" if problem.maximize else "Minimize",
             " obj: " + terms(problem.c, np.nonzero(problem.c)[0]),
             "Subject To"]
    for i in range(problem.num_rows):
        rname = problem.row_names[i] if problem.row_names else f"c{i}"
        row = terms(problem.A[i], np.nonzero(problem.A[i])[0])
        lines.append(f" {rname}: {row} {_SENSE_TEXT[int(problem.senses[i])]} "
                     f"{problem.b[i]:.12g}")
    lines.append("Bounds")
    for j in range(problem.num_vars):
        lo, up = problem.lower[j], problem.upper[j]
        if lo == -np.inf and up == np.inf:
            lines.append(f" {var(j)} free")
        else:
            left = "-infinity" if lo == -np.inf else f"{lo:.12g}"
            right = "+infinity" if up == np.inf else f"{up:.12g}"
            lines.append(f" {left} <= {var(j)} <= {right}")
    if problem.integer.any():
        lines.append("Generals")
        lines.append(" " + " ".join(var(j) for j in np.nonzero(problem.integer)[0]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def dump_lp(problem: MilpProblem, path: Union[str, Path],
            name: str = "problem") -> None:
    Path(path).write_text(lp_format_text(problem, name=name))
