"""Self-contained linear and mixed-integer linear programming.

LPs are solved by a bounded-variable revised simplex that keeps the
basis inverse B^{-1} explicitly: an entering column is B^{-1} a_j, the
pivot row of the ratio tests is row r of B^{-1} times the columns, and a
pivot is a rank-1 update of B^{-1} and of the reduced costs.  A cold
solve runs two primal phases from an artificial-variable identity
basis, with Dantzig pricing, a Bland fallback after degenerate stalls,
and a bounded-variable ratio test with bound flips; when its starting
point already lies on every row, it starts from the slack basis
instead and phase 1 has nothing to do.  A warm solve starts from a
given basis and its factor (B^{-1} and the reduced costs there) -- in
branch and bound, the optimal basis of the node that spawned the LP,
factored once for both children; through ``solve_lp(start=...)``, the
optimal basis of an earlier solve under other bounds.  It repairs the
basics that the changed bounds push out of range with a bounded dual
simplex and finishes with the primal loop.  A MILP's root LP may start
from the optimal root basis of an earlier solve that differed in the
objective alone: still primal feasible, it needs only the primal loop.

B^{-1}, the basic values and the reduced costs are re-derived from the
original data at regular intervals and before any claim of optimality;
a returned optimum is checked for feasibility and optimality on values
re-derived at its basis, independently of the (possibly drifted)
updates.  A warm solve reports infeasibility only when a Farkas row,
recomputed from the original data, shows that no point inside the
bounds satisfies the rows.  Anything else that goes wrong on the warm
path -- a singular (or ill-conditioned) start, a dual infeasible start
or, at a warm root, a primal infeasible one, the iteration cap, a
failed check, an unconfirmed Farkas row -- sends the LP to a cold
solve.

Integer restrictions are handled by best-bound branch and bound on the
LP relaxation with most-fractional branching.  Before it, a MILP is
presolved: fixed columns fold into the right-hand sides, singleton rows
become bounds (rounded inward on integer columns), an equality row on
two columns substitutes a continuous one away, rows that are multiples
of one another merge into one range, and empty rows are dropped, until
none of these applies.  A contradiction counts only beyond the cut at
which phase 1 calls rows empty.  The reductions read the rows, bounds
and integrality, never the objective, and compose into one affine map
from the reduced variables to the original ones; the reduced solution
is mapped back and checked against the original rows, bounds and
integrality.  A root basis carries its problem's reduction, so a
re-solve under another objective skips presolve.  No external solver is
involved; numpy supplies the linear algebra.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence, Union

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
class SolverOptions:
    """Tolerances and limits for the LP and MILP solvers."""

    tol_feas: float = 1e-7       # bound/row feasibility
    tol_int: float = 1e-6        # integrality of relaxation values
    tol_gap: float = 1e-9        # absolute incumbent/bound gap
    tol_cost: float = 1e-9       # reduced-cost threshold for pricing
    tol_pivot: float = 1e-9      # minimum pivot magnitude
    max_iterations: int = 50_000  # simplex pivots per LP solve
    max_nodes: int = 100_000     # branch-and-bound nodes
    refactor_every: int = 60     # exact recompute interval (pivots)
    bland_after: int = 80        # degenerate steps before Bland's rule


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
    one slack and one artificial per row): the basic column of each row
    and every column's status (at lower, at upper, basic or free)."""

    basic: np.ndarray           # int, one per row
    status: np.ndarray          # int8, one per column
    # on a root basis from ``solve_milp``: the reduction it is a basis of
    presolved: _Presolved | None = field(default=None, repr=False,
                                         compare=False)


@dataclass
class LpSolution:
    status: SolveStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int
    basis: Basis | None = None  # the optimal basis, when OPTIMAL


@dataclass
class MilpSolution:
    status: SolveStatus
    x: np.ndarray | None
    objective: float | None
    best_bound: float | None
    nodes: int
    iterations: int
    # the optimal basis of the reduced problem's root relaxation, a start
    # for a re-solve after the objective changes (see ``solve_milp``)
    root_basis: Basis | None = None
    # the size of the problem branch and bound solved, after presolve
    solved_rows: int = 0
    solved_cols: int = 0


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
# Bounded-variable revised simplex on an explicit basis inverse: cold
# two-phase primal, warm bounded dual followed by primal

_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3
# By status: may a nonbasic column rise from its value, or fall?
_MAY_RISE = np.array([True, False, False, True])
_MAY_FALL = np.array([False, True, False, True])

# Ratio-test tie window: steps within this of the shortest count as tied,
# and the tie is broken by the largest pivot magnitude.
_RATIO_TIE = 1e-9
# A step no longer than this is degenerate; more than ``bland_after`` of
# them in a row switch to Bland's rule so that the loop cannot cycle.
_DEGENERATE_STEP = 1e-12
# A feasible problem drives the phase-1 artificial sum to roundoff level
# (~1e-13 at these scales); a leftover above this fraction of tol_feas
# (times 1 + max|b|) is a genuinely empty feasible region, even when it
# would pass the looser per-variable tolerance applied to returned
# solutions.  A row with a coefficient below 1 has its leftover counted
# in units of its smallest one: phase 2 may absorb the leftover in any
# variable of the row, and the check of a returned basis bounds how far
# that variable moves, not the row residual.
_PHASE1_EMPTY = 1e-2
# A basis whose 1-norm condition estimate ||B|| ||B^{-1}|| exceeds this is
# singular: np.linalg.inv raises only on an exactly zero pivot and leaves
# entries near 1e16 for a column held twice.  Bases of the test suite and
# the benchmark stay below 1e6.
_MAX_CONDITION = 1e12
# Largest column block [A I I] (8m(n+2m) bytes, more than B^{-1}) that a
# problem may need; a larger one is refused before it is allocated.
_MAX_DENSE_BYTES = 1 << 30


def _check_size(m: int, n: int) -> None:
    """Refuse a problem of m rows and n variables whose dense solver
    arrays would exceed ``_MAX_DENSE_BYTES``."""
    size = 8 * m * (n + 2 * m)
    if size > _MAX_DENSE_BYTES:
        raise ProblemTooLargeError(
            f"a problem of {m} rows and {n} variables needs "
            f"{size / 2**30:.1f} GiB of dense solver arrays; the limit "
            f"is {_MAX_DENSE_BYTES / 2**30:.1f} GiB")


def _row_scale(A: np.ndarray) -> np.ndarray:
    """Per row, the unit of its phase-1 leftover: min(1, its smallest
    nonzero |coefficient|)."""
    return np.where(A != 0, np.abs(A), 1.0).min(axis=1, initial=1.0)


@dataclass(frozen=True)
class _Factor:
    """B^{-1} and the reduced costs of the problem's objective at one
    basis, derived from the original data.  Several warm solves may
    start from one factor; each pivots on its own copy."""

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
    condition = (np.abs(B).sum(axis=0).max(initial=0.0)
                 * np.abs(binv).sum(axis=0).max(initial=0.0))
    if not condition <= _MAX_CONDITION:
        raise SolverFailureError(
            f"numerically singular simplex basis (condition {condition:.3g})")
    return binv, cost - (cost[basic] @ binv) @ A_all


class _Columns:
    """The columns that every LP of one problem shares: the variables,
    then one slack per row ('<=' slack in [0, inf), '>=' slack in
    (-inf, 0], '==' slack fixed at 0), then one artificial per row.
    Here the artificials are the identity, fixed at zero as in every
    warm solve; a cold solve signs and frees them for phase 1."""

    def __init__(self, c: np.ndarray, A: np.ndarray, b: np.ndarray,
                 senses: np.ndarray):
        m, n = A.shape
        _check_size(m, n)
        self.m, self.n = m, n
        self.A = A
        self.A_all = np.hstack([A, np.eye(m), np.eye(m)])
        self.b = b
        self.cost = np.concatenate([c, np.zeros(2 * m)])
        self.slack_lo = np.where(senses == 1, -np.inf, 0.0)
        self.slack_up = np.where(senses == -1, np.inf, 0.0)
        self.row_scale = _row_scale(A)

    def bounds(self, lo: np.ndarray,
               up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of every column, given those of the variables."""
        zero = np.zeros(self.m)
        return (np.concatenate([lo, self.slack_lo, zero]),
                np.concatenate([up, self.slack_up, zero]))

    def factor(self, basis: Basis) -> _Factor | None:
        """The factor at ``basis``, or None when it is singular."""
        try:
            return _Factor(*_invert(self.A_all, basis.basic, self.cost))
        except SolverFailureError:
            return None


class _Simplex:
    """One LP solve of min cc'x over the shared columns, with the basis
    inverse ``Binv`` kept explicitly: an entering column is Binv a_j, a
    pivot row is Binv[r] A_all, and a pivot is a rank-1 update of Binv
    and of the reduced-cost row d.

    Without ``factor`` the solve is cold: each artificial takes the sign
    of its row's residual at the starting values, the artificials form
    the phase-1 identity basis, and cc is their sum; when every residual
    is zero, the slacks form the basis instead, which is already
    phase-1 optimal.  With ``factor``
    (taken at ``start``) it is warm: the artificials stay fixed at zero,
    the solve pivots on its own copy of the factor, and every nonbasic
    column rests at the bound its status names.  Unless ``keep_status``
    is set, a boxed column whose reduced cost has the wrong sign for that
    bound rests at the other one, so only columns with an infinite bound
    can leave the start dual infeasible; with it set, every column keeps
    its status, so a start that was primal feasible under these bounds
    stays so.

    ``derived`` holds while xB and d are as re-derived from the original
    data at the current basis: ``_refactor`` and ``_rederive`` set it,
    and every pivot, bound flip or move of the nonbasics clears it."""

    def __init__(self, cols: _Columns, lo: np.ndarray, up: np.ndarray,
                 opts: SolverOptions, start: Basis | None = None,
                 factor: _Factor | None = None, keep_status: bool = False):
        m, n = cols.m, cols.n
        self.m, self.n, self.N = m, n, n + 2 * m
        self.opts = opts
        self.b = cols.b
        self.row_scale = cols.row_scale
        self.A = cols.A
        self.lo, self.up = cols.bounds(lo, up)
        self.movable = self.up > self.lo    # fixed columns never enter
        self.iterations = 0
        if factor is not None:
            self.A_all = cols.A_all
            self.sigma = np.ones(m)
            self.cc = cols.cost
            self.basis = start.basic.astype(np.intp)
            self.Binv = factor.binv.copy()
            self.d = factor.d.copy()
            self._rest_nonbasics(start.status, keep_status)
            return
        # start every non-artificial variable at a finite bound
        k = n + m
        lo_x, up_x = self.lo[:k], self.up[:k]
        val = np.where(np.isfinite(lo_x), lo_x,
                       np.where(np.isfinite(up_x), up_x, 0.0))
        stat = np.where(np.isfinite(lo_x), _AT_LOWER,
                        np.where(np.isfinite(up_x), _AT_UPPER, _FREE))
        residual = self.b - cols.A_all[:, :k] @ val
        sigma = np.where(residual >= 0, 1.0, -1.0)
        self.sigma = sigma
        self.A_all = cols.A_all.copy()
        self.A_all[:, k:] *= sigma
        self.up[k:] = np.inf
        self.movable[k:] = True
        self.val = np.concatenate([val, np.zeros(m)])
        self.cc = np.concatenate([np.zeros(k), np.ones(m)])
        if residual.any():
            self.basis = np.arange(k, n + 2 * m)
            self.Binv = np.diag(sigma)               # B = diag(sigma)
            self.d = self.cc - sigma @ self.A_all    # y = 1'B^{-1} = sigma
        else:
            # the start lies on every row, so the phase-1 objective is
            # already zero: the slacks, all zero, form the basis instead
            # of artificials that phase 1 could only pivot out in place
            self.basis = np.arange(n, k)
            self.Binv = np.eye(m)
            self.d = self.cc.copy()                  # y = 0
        self.stat = np.concatenate([stat, np.full(m, _AT_LOWER)])
        self.stat[self.basis] = _BASIC
        self.xB = sigma * residual
        self.derived = True

    def _rest_nonbasics(self, status: np.ndarray,
                        keep_status: bool = False) -> None:
        """Place the nonbasics as the class docstring says and solve for
        the basics."""
        lo, up = self.lo, self.up
        at_up = status == _AT_UPPER
        if not keep_status:
            boxed = np.isfinite(lo) & np.isfinite(up)
            tol = self.opts.tol_cost
            at_up = np.where(boxed & (self.d < -tol), True,
                             np.where(boxed & (self.d > tol), False, at_up))
        stat = np.where(at_up & np.isfinite(up), _AT_UPPER,
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
        solves cost less than one inversion."""
        B = self.A_all[:, self.basis]
        try:
            self.xB = np.linalg.solve(B, self._basic_rhs())
            y = np.linalg.solve(B.T, self.cc[self.basis])
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
        """Row r of B^{-1} A_all, from the blocks [A I S] of A_all (S the
        diagonal of artificial signs, the identity on a warm solve)."""
        v = self.Binv[r]
        n, k = self.n, self.n + self.m
        row = np.empty(self.N)
        row[:n] = v @ self.A
        row[n:k] = v
        np.multiply(v, self.sigma, out=row[k:])
        return row

    def _candidates(self, tol: float) -> np.ndarray:
        d, stat = self.d, self.stat
        return self.movable & ((_MAY_RISE[stat] & (d < -tol))
                               | (_MAY_FALL[stat] & (d > tol)))

    def _exchange(self, r: int, j: int, col: np.ndarray, row: np.ndarray,
                  enter_value: float, leave_at_upper: bool) -> None:
        """Column j, whose entering column Binv a_j is ``col``, replaces
        the basic of row r, which leaves at one of its bounds; ``row`` is
        the pivot row Binv[r] A_all.  Rank-1 update of Binv and d."""
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
        others = col.copy()
        others[r] = 0.0
        self.Binv -= np.outer(others, self.Binv[r])
        self.derived = False

    def iterate(self, budget: int) -> SolveStatus:
        """Primal pivots until optimal/unbounded or the budget runs out."""
        opts = self.opts
        since_refactor = 0
        stall = 0
        bland = False
        while True:
            if self.iterations >= budget:
                return SolveStatus.ITERATION_LIMIT
            cand = self._candidates(opts.tol_cost)
            if not cand.any():
                if self.derived:
                    return SolveStatus.OPTIMAL
                self._rederive()        # confirm against original data
                since_refactor = 0
                continue
            idx = np.nonzero(cand)[0]
            j = int(idx[0]) if bland else int(idx[np.argmax(np.abs(self.d[idx]))])
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
                      where=delta > opts.tol_pivot)
            np.divide(up_B - self.xB, -delta, out=t_rows,
                      where=delta < -opts.tol_pivot)
            np.maximum(t_rows, 0.0, out=t_rows)
            t_row = float(t_rows.min()) if self.m else np.inf
            span = self.up[j] - self.lo[j]
            t_flip = float(span) if np.isfinite(span) else np.inf

            if min(t_row, t_flip) == np.inf:
                if self.derived:
                    return SolveStatus.UNBOUNDED
                self._refactor()        # rule out drift before giving up
                since_refactor = 0
                continue

            self.iterations += 1
            since_refactor += 1
            if t_flip <= t_row:
                # bound flip: no basis change
                self.xB -= direction * t_flip * col
                self.stat[j] = _AT_UPPER if direction > 0 else _AT_LOWER
                self.val[j] = self.up[j] if direction > 0 else self.lo[j]
                self.derived = False
                step = t_flip
            else:
                rows = np.nonzero(t_rows <= t_row + _RATIO_TIE)[0]
                if bland:
                    r = int(rows[np.argmin(self.basis[rows])])
                else:
                    r = int(rows[np.argmax(np.abs(delta[rows]))])
                enter_value = self.val[j] + direction * t_row
                self.xB -= direction * t_row * col
                self._exchange(r, j, col, self._pivot_row(r),
                               enter_value, leave_at_upper=not delta[r] > 0)
                step = t_row

            if step <= _DEGENERATE_STEP:
                stall += 1
                if stall > opts.bland_after:
                    bland = True
            else:
                stall = 0
                bland = False
            if since_refactor >= opts.refactor_every:
                self._refactor()
                since_refactor = 0

    def dual_iterate(self, budget: int) -> tuple[SolveStatus, int]:
        """Bounded dual simplex from a dual feasible basis.  Returns
        (OPTIMAL, -1) once every basic lies within its bounds, leaving
        any reduced cost that drifted past tolerance to ``iterate``;
        (INFEASIBLE, r) when the basic of row r is out of bounds and no
        nonbasic column can move it back; or (ITERATION_LIMIT, -1)."""
        opts = self.opts
        since_refactor = 0
        stall = 0
        bland = False
        while True:
            if self.iterations >= budget:
                return SolveStatus.ITERATION_LIMIT, -1
            lo_B = self.lo[self.basis]
            up_B = self.up[self.basis]
            below = lo_B - self.xB
            infeas = np.maximum(below, self.xB - up_B)
            rows = np.nonzero(infeas > opts.tol_feas)[0]
            if rows.size == 0:
                if self.derived:
                    return SolveStatus.OPTIMAL, -1
                self._rederive()        # confirm against original data
                since_refactor = 0
                continue
            if bland:
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                r = int(rows[np.argmax(infeas[rows])])
            to_lower = below[r] > 0
            # x_B[r] moves by -row[j] per unit step of column j; alpha is
            # signed so that a helpful step has alpha_j * dx_j < 0
            row = self._pivot_row(r)
            alpha = row if to_lower else -row
            stat = self.stat
            tol = opts.tol_pivot
            eligible = self.movable & ((_MAY_RISE[stat] & (alpha < -tol))
                                       | (_MAY_FALL[stat] & (alpha > tol)))
            idx = np.nonzero(eligible)[0]
            if idx.size == 0:
                return SolveStatus.INFEASIBLE, r
            d = self.d[idx]
            slack = np.where(stat[idx] == _AT_LOWER, d,
                             np.where(stat[idx] == _AT_UPPER, -d, np.abs(d)))
            ratios = np.maximum(slack, 0.0) / np.abs(alpha[idx])
            t = float(ratios.min())
            tied = idx[ratios <= t + _RATIO_TIE]
            if bland:
                q = int(tied[0])
            else:
                q = int(tied[np.argmax(np.abs(alpha[tied]))])

            col = self.Binv @ self.A_all[:, q]
            target = lo_B[r] if to_lower else up_B[r]
            theta = (self.xB[r] - target) / col[r]
            enter_value = self.val[q] + theta
            self.xB -= theta * col
            self._exchange(r, q, col, row, enter_value,
                           leave_at_upper=not to_lower)
            self.iterations += 1
            since_refactor += 1

            if t <= _DEGENERATE_STEP:
                stall += 1
                if stall > opts.bland_after:
                    bland = True
            else:
                stall = 0
                bland = False
            if since_refactor >= opts.refactor_every:
                self._refactor()
                since_refactor = 0


def _phase1_cut(sx: _Simplex, opts: SolverOptions) -> float:
    """The leftover above which phase 1 calls the rows empty."""
    return _PHASE1_EMPTY * opts.tol_feas * (1.0 + np.abs(sx.b).max(initial=0.0))


def _simplex_solve(cols: _Columns, lo: np.ndarray, up: np.ndarray,
                   opts: SolverOptions) -> LpSolution:
    """Cold solve: phase 1 from the artificial identity, then phase 2."""
    if np.any(lo > up):
        return LpSolution(SolveStatus.INFEASIBLE, None, None, 0)
    sx = _Simplex(cols, lo, up, opts)
    n, m = sx.n, sx.m

    # phase 1: minimize the artificial sum
    status = sx.iterate(opts.max_iterations)
    if status == SolveStatus.ITERATION_LIMIT:
        return LpSolution(status, None, None, sx.iterations)
    if status == SolveStatus.UNBOUNDED:
        raise SolverFailureError("phase-1 objective cannot be unbounded")
    leftover = np.abs(sx.assemble()[n + m:]) / sx.row_scale
    if leftover.sum() > _phase1_cut(sx, opts):
        return LpSolution(SolveStatus.INFEASIBLE, None, None, sx.iterations)

    # phase 2: clamp artificials to zero and minimize the real objective
    sx.lo[n + m:] = 0.0
    sx.up[n + m:] = 0.0
    sx.movable[n + m:] = False
    sx.val[n + m:] = 0.0
    sx.cc = cols.cost
    sx._refactor()
    for _attempt in range(3):
        status = sx.iterate(opts.max_iterations)
        if status != SolveStatus.OPTIMAL:
            x = sx.assemble()[:n] if status == SolveStatus.ITERATION_LIMIT else None
            obj = float(cols.cost[:n] @ x) if x is not None else None
            return LpSolution(status, x, obj, sx.iterations)
        if _verified_optimum(sx, opts):
            return _optimal(sx)
        sx._refactor()
    raise SolverFailureError("simplex solution failed numerical verification")


def _warm_solve(cols: _Columns, lo: np.ndarray, up: np.ndarray, start: Basis,
                factor: _Factor | None, opts: SolverOptions) -> LpSolution:
    """Re-solve from ``start``, an optimal basis of the same rows and
    objective under other bounds, whose factor is ``factor`` (None when
    it is singular): bounded dual simplex to primal feasibility, then
    primal simplex, then the same independent check as a cold solve.
    INFEASIBLE is reported only when a Farkas row confirms it; every
    other failure falls back to ``_simplex_solve``, whose pivots are
    added to the warm attempt's."""
    if np.any(lo > up):
        return LpSolution(SolveStatus.INFEASIBLE, None, None, 0)
    sx = None
    if factor is not None:
        try:
            sx = _Simplex(cols, lo, up, opts, start=start, factor=factor)
            if not _verified_candidates(sx, opts).any():
                status, r = sx.dual_iterate(opts.max_iterations)
                if (status == SolveStatus.INFEASIBLE
                        and _farkas_confirms(sx, r, opts)):
                    return LpSolution(SolveStatus.INFEASIBLE, None, None,
                                      sx.iterations)
                if (status == SolveStatus.OPTIMAL
                        and sx.iterate(opts.max_iterations)
                        == SolveStatus.OPTIMAL
                        and _verified_optimum(sx, opts)):
                    return _optimal(sx)
        except SolverFailureError:      # singular basis at a refactor
            pass
    return _fall_back(cols, lo, up, opts, sx)


def _primal_warm_solve(cols: _Columns, lo: np.ndarray, up: np.ndarray,
                       start: Basis, opts: SolverOptions) -> LpSolution:
    """Re-solve from ``start``, an optimal basis of the same rows and
    bounds under another objective.  Factored once, with every nonbasic
    at its recorded status, it is still primal feasible, so the primal
    loop finishes from it, followed by the same check as a cold solve.
    A singular start, a basic out of bounds, the iteration cap or a
    failed check fall back to ``_simplex_solve``."""
    factor = cols.factor(start)
    sx = None
    if factor is not None:
        try:
            sx = _Simplex(cols, lo, up, opts, start=start, factor=factor,
                          keep_status=True)
            lo_B, up_B = sx.lo[sx.basis], sx.up[sx.basis]
            if (np.all(sx.xB >= lo_B - opts.tol_feas)
                    and np.all(sx.xB <= up_B + opts.tol_feas)
                    and sx.iterate(opts.max_iterations)
                    == SolveStatus.OPTIMAL
                    and _verified_optimum(sx, opts)):
                return _optimal(sx)
        except SolverFailureError:      # singular basis at a refactor
            pass
    return _fall_back(cols, lo, up, opts, sx)


def _fall_back(cols: _Columns, lo: np.ndarray, up: np.ndarray,
               opts: SolverOptions, sx: _Simplex | None) -> LpSolution:
    """The cold solve, with the pivots of the failed warm attempt."""
    sol = _simplex_solve(cols, lo, up, opts)
    if sx is not None:
        sol.iterations += sx.iterations
    return sol


def _optimal(sx: _Simplex) -> LpSolution:
    x = sx.assemble()[:sx.n]
    return LpSolution(SolveStatus.OPTIMAL, x, float(sx.cc[:sx.n] @ x),
                      sx.iterations,
                      Basis(sx.basis.copy(), sx.stat.astype(np.int8)))


def _verified_candidates(sx: _Simplex, opts: SolverOptions) -> np.ndarray:
    tol = 10 * opts.tol_cost * (1.0 + np.abs(sx.cc).max(initial=0.0))
    return sx._candidates(tol)


def _verified_optimum(sx: _Simplex, opts: SolverOptions) -> bool:
    """Independent check of a claimed optimum: re-derive the basic
    solution and reduced costs from the original data, unless they were
    re-derived at this basis and nothing has moved since, then test the
    bounds of every basic and the sign of every reduced cost."""
    if not sx.derived:
        sx._rederive()
    lo_B = sx.lo[sx.basis]
    up_B = sx.up[sx.basis]
    scale = 1.0 + np.abs(sx.b).max(initial=0.0)
    feas = (np.all(sx.xB >= lo_B - opts.tol_feas * scale)
            and np.all(sx.xB <= up_B + opts.tol_feas * scale))
    return bool(feas) and not _verified_candidates(sx, opts).any()


def _farkas_confirms(sx: _Simplex, r: int, opts: SolverOptions) -> bool:
    """Whether row r of the basis proves the LP empty.  The row is
    recomputed from the original data (B'y = e_r, alpha = y'A_all, with
    entries of magnitude at most tol_pivot taken as zero).  It confirms
    when y'b lies outside the range of alpha'x over the bounds by more
    than the phase-1 emptiness cut times max_i |y_i| s_i, where s_i is
    row i's scale in the phase-1 leftover: since |y'(b - A_all x)| <=
    max_i |y_i| s_i * sum_i |b - A_all x|_i / s_i, every point inside
    the bounds then leaves a scaled leftover above the cut at which a
    cold phase 1 reports the LP empty."""
    e_r = np.zeros(sx.m)
    e_r[r] = 1.0
    try:
        y = np.linalg.solve(sx.A_all[:, sx.basis].T, e_r)
    except np.linalg.LinAlgError:
        return False
    alpha = y @ sx.A_all
    alpha[np.abs(alpha) <= opts.tol_pivot] = 0.0
    pos, neg = alpha > 0, alpha < 0
    low = alpha[pos] @ sx.lo[pos] + alpha[neg] @ sx.up[neg]
    high = alpha[pos] @ sx.up[pos] + alpha[neg] @ sx.lo[neg]
    rhs = y @ sx.b
    margin = _phase1_cut(sx, opts) * np.abs(y * sx.row_scale).max()
    return bool(rhs < low - margin or rhs > high + margin)


def _fits(basis: Basis, m: int, n: int) -> bool:
    """Whether ``basis`` has the shape of a basis of m rows and n
    variables."""
    return basis.basic.shape == (m,) and basis.status.shape == (n + 2 * m,)


def _prepare(problem: MilpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                            np.ndarray]:
    c = -problem.c if problem.maximize else problem.c
    return (np.asarray(c, dtype=float), np.asarray(problem.A, dtype=float),
            np.asarray(problem.b, dtype=float),
            np.asarray(problem.senses, dtype=np.int8))


def solve_lp(problem: MilpProblem, options: SolverOptions | None = None,
             start: Basis | None = None) -> LpSolution:
    """Solve the LP relaxation (integrality flags are ignored).

    ``start`` is the optimal ``basis`` of an earlier solve of a problem
    with the same rows and objective under other bounds.  The LP is then
    re-solved from it by ``_warm_solve``: a bounded dual simplex to
    primal feasibility, the primal loop, and the same check as a cold
    solve; infeasibility only on a confirmed Farkas row, and a cold
    solve after any other failure.  A start whose shape does not fit the
    problem is ignored."""
    opts = options or SolverOptions()
    cols = _Columns(*_prepare(problem))
    lo = np.asarray(problem.lower, dtype=float)
    up = np.asarray(problem.upper, dtype=float)
    if start is not None and _fits(start, cols.m, cols.n):
        sol = _warm_solve(cols, lo, up, start, cols.factor(start), opts)
    else:
        sol = _simplex_solve(cols, lo, up, opts)
    if problem.maximize and sol.objective is not None:
        sol.objective = -sol.objective
    return sol


# ---------------------------------------------------------------------------
# Presolve

# A sum that a substitution leaves below this fraction of the terms it
# added is cancellation roundoff, and is set to exactly zero.
_CANCELLED = 1e-12


class _Infeasible(Exception):
    """A reduction met rows that no point inside the bounds satisfies."""


def _constraints(problem: MilpProblem) -> tuple[np.ndarray, ...]:
    """The arrays presolve reads: all but the objective."""
    return (problem.A, problem.b, problem.senses, problem.lower,
            problem.upper, problem.integer)


@dataclass
class _Presolved:
    """A reduction: the reduced rows, bounds and integrality, and the
    affine map x = P x_red + q back to the original variables.  Every
    reduction writes an original variable as a multiple of one reduced
    variable plus a constant, so P has at most one entry per row: x_i =
    coef[i] x_red[col[i]] + q[i], and x_i = q[i] where col[i] is -1.
    ``source`` holds copies of the arrays it was made from."""

    reduced: MilpProblem        # its objective is not read
    col: np.ndarray
    coef: np.ndarray
    q: np.ndarray
    source: tuple[np.ndarray, ...]
    tol_feas: float

    def reduces(self, problem: MilpProblem, opts: SolverOptions) -> bool:
        """Whether ``problem`` has the rows, bounds and integrality this
        reduction was made from, under the same tolerance."""
        return (opts.tol_feas == self.tol_feas
                and all(np.array_equal(mine, theirs) for mine, theirs
                        in zip(self.source, _constraints(problem))))

    def objective(self, problem: MilpProblem) -> tuple[MilpProblem, float]:
        """The reduced problem under ``problem``'s objective: P'c, and
        the constant c'q."""
        c = np.asarray(problem.c, dtype=float)
        kept = self.col >= 0
        reduced_c = np.bincount(self.col[kept],
                                weights=self.coef[kept] * c[kept],
                                minlength=self.reduced.num_vars)
        return (replace(self.reduced, c=reduced_c, maximize=problem.maximize),
                float(c @ self.q))

    def postsolve(self, x_red: np.ndarray) -> np.ndarray:
        x = self.q.copy()
        kept = self.col >= 0
        x[kept] += self.coef[kept] * x_red[self.col[kept]]
        return x

    def fits(self, basis: Basis) -> bool:
        """Whether ``basis`` has the shape of a basis of the reduced
        problem."""
        return _fits(basis, self.reduced.num_rows, self.reduced.num_vars)


class _Presolve:
    """Reductions of a MILP that read only its rows, bounds and
    integrality, never its objective (see ``solve_milp``).  The rows are
    held as ranges rl <= A x <= rh and the map back as in
    ``_Presolved``, over the original indices: a removed row is marked
    dead, a removed column is marked dead and zeroed in A, and the
    reduced problem is cut out once at the end.  The steps run in turn
    until every step has run once since the last change.

    A row contradiction counts only when it exceeds the cut at which
    phase 1 calls rows empty, in the same units (the row's residual over
    ``_row_scale``, min(1, its smallest coefficient)); a smaller one is
    absorbed by clipping the implied bounds into the current ones."""

    def __init__(self, problem: MilpProblem, opts: SolverOptions):
        b = np.asarray(problem.b, dtype=float)
        senses = np.asarray(problem.senses)
        self.A = np.array(problem.A, dtype=float)
        m, n = self.A.shape
        self.rl = np.where(senses >= 0, b, -np.inf)
        self.rh = np.where(senses <= 0, b, np.inf)
        self.lo = np.array(problem.lower, dtype=float)
        self.up = np.array(problem.upper, dtype=float)
        self.integer = np.array(problem.integer, dtype=bool)
        self.live_row = np.ones(m, dtype=bool)
        self.live_col = np.ones(n, dtype=bool)
        self.col = np.arange(n)
        self.coef = np.ones(n)
        self.q = np.zeros(n)
        self.tol = opts.tol_feas
        self.cut = (_PHASE1_EMPTY * opts.tol_feas
                    * (1.0 + np.abs(b).max(initial=0.0)))

    def run(self) -> None:
        if np.any(self.lo > self.up):
            raise _Infeasible
        self._tighten(slice(None), self.lo, self.up)
        steps = (self._rows_of_one, self._fold_fixed, self._merge_parallel,
                 self._substitute_doubletons)
        idle = 0
        for step in itertools.cycle(steps):
            idle = 0 if step() else idle + 1
            if idle == len(steps):
                return

    def _tighten(self, j, lo: np.ndarray, up: np.ndarray) -> None:
        """Set the bounds of the distinct columns j, rounding those of
        integer columns inward."""
        integral = self.integer[j]
        if integral.any():
            lo = np.where(integral, np.ceil(lo - self.tol), lo)
            up = np.where(integral, np.floor(up + self.tol), up)
            if np.any(lo > up):
                raise _Infeasible
        self.lo[j] = lo
        self.up[j] = up

    def _narrow(self, k: np.ndarray, low: np.ndarray, high: np.ndarray,
                factor: np.ndarray) -> np.ndarray:
        """Narrow the bounds of the columns k to the ranges [low, high]
        that some rows imply, and return the positions of the rows
        applied, ordered by column.  ``factor`` turns a gap in x_k into
        the row's scaled residual.  Rows on one column apply together,
        unless their ranges are disjoint: then the first applies, and
        the others wait to be checked against its result."""
        lo, up = self.lo[k], self.up[k]
        if np.any((low > up) | (high < lo)):
            gap = np.maximum(np.maximum(low - up, lo - high), 0.0)
            if np.any(gap * factor > self.cut):
                raise _Infeasible
            low = np.minimum(np.maximum(low, lo), up)
            high = np.maximum(np.minimum(high, up), lo)
        order = np.argsort(k, kind="stable")
        sk = k[order]
        start = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
        joint_lo = np.maximum.reduceat(low[order], start)
        joint_up = np.minimum.reduceat(high[order], start)
        if np.any(joint_lo > joint_up):
            order = order[start]
            joint_lo, joint_up = low[order], high[order]
        kept = sk[start]
        self._tighten(kept, np.maximum(joint_lo, self.lo[kept]),
                      np.minimum(joint_up, self.up[kept]))
        return order

    def _remove(self, j: np.ndarray, k: np.ndarray, ratio: np.ndarray,
                shift: np.ndarray) -> None:
        """Remove the columns j, each written as shift + ratio * column
        k (k = -1 and ratio 0 for a constant)."""
        where = np.full(self.lo.size + 1, -1)   # where[-1]: constants
        where[j] = np.arange(j.size)
        t = where[self.col]
        hit = np.flatnonzero(t >= 0)
        t = t[hit]
        self.q[hit] += self.coef[hit] * shift[t]
        self.coef[hit] *= ratio[t]
        self.col[hit] = k[t]
        self.A[:, j] = 0.0
        self.live_col[j] = False

    def _rows_of_one(self) -> bool:
        """Empty rows are dropped and singleton rows become bounds."""
        A = self.A
        count = np.count_nonzero(A, axis=1)
        few = self.live_row & (count <= 1)
        if not few.any():
            return False
        empty = few & (count == 0)
        if np.any(np.maximum(self.rl[empty], -self.rh[empty]) > self.cut):
            raise _Infeasible
        self.live_row[empty] = False
        rows = np.flatnonzero(few & (count == 1))
        if rows.size:
            j = np.nonzero(A[rows])[1]
            a = A[rows, j]
            rl, rh = self.rl[rows], self.rh[rows]
            applied = self._narrow(j, np.where(a > 0, rl, rh) / a,
                                   np.where(a > 0, rh, rl) / a,
                                   np.maximum(np.abs(a), 1.0))
            rows, j = rows[applied], j[applied]
            self.live_row[rows] = False
            A[rows, j] = 0.0
        return True

    def _fold_fixed(self) -> bool:
        """Fixed columns move into the row ranges."""
        fixed = np.flatnonzero(self.live_col & (self.lo == self.up)
                               & np.isfinite(self.lo))
        if not fixed.size:
            return False
        value = self.lo[fixed]
        moved = self.A[:, fixed] @ value
        self.rl = self.rl - moved
        self.rh = self.rh - moved
        self._remove(fixed, np.full(fixed.size, -1), np.zeros(fixed.size),
                     value)
        return True

    def _merge_parallel(self) -> bool:
        """Rows that are multiples of one another become one range row:
        the one with the largest scale, which leaves no other row's
        residual larger than its own.  Equal bounds make an equality."""
        live = np.flatnonzero(self.live_row)
        if live.size < 2:
            return False
        A = self.A[live]
        # each row over its largest |entry|, signed like its first entry
        lead = A[np.arange(live.size), (A != 0).argmax(axis=1)]
        scale = np.copysign(np.abs(A).max(axis=1), lead)
        scale[scale == 0] = 1.0
        unit = A / scale[:, None] + 0.0         # + 0.0 turns -0.0 into 0.0
        # equal rows get equal keys (a row-wise sum, unlike a BLAS
        # product, adds every row in one order); neighbours are compared
        key = (unit * np.sqrt(np.arange(2.0, A.shape[1] + 2.0))).sum(axis=1)
        order = np.argsort(key, kind="stable")
        ordered = unit[order]
        same = np.all(ordered[1:] == ordered[:-1], axis=1)
        if not same.any():
            return False
        # runs of equal rows in ``order``, and where each run starts
        after = np.concatenate(([False], same))
        in_run = np.flatnonzero(after | np.concatenate((same, [False])))
        begins = ~after[in_run]
        first = np.flatnonzero(begins)
        run = np.cumsum(begins)
        s, rows = scale[order[in_run]], live[order[in_run]]
        low = np.where(s > 0, self.rl[rows], self.rh[rows]) / s
        high = np.where(s > 0, self.rh[rows], self.rl[rows]) / s
        joint_lo = np.maximum.reduceat(low, first)
        joint_up = np.minimum.reduceat(high, first)
        best = np.lexsort((-np.abs(s), run))[first]
        kept, ks = rows[best], s[best]
        crossed = joint_lo > joint_up
        if crossed.any():
            # the gap, in units of the unit row, as the kept row's scaled
            # residual
            gap = ((joint_lo - joint_up)[crossed] * np.abs(ks[crossed])
                   / _row_scale(self.A[kept[crossed]]))
            if np.any(gap > self.cut):
                raise _Infeasible
            mid = (joint_lo + joint_up) / 2
            joint_lo[crossed] = joint_up[crossed] = mid[crossed]
        self.rl[kept] = np.where(ks > 0, joint_lo, joint_up) * ks
        self.rh[kept] = np.where(ks > 0, joint_up, joint_lo) * ks
        self.live_row[rows] = False
        self.live_row[kept] = True
        return True

    def _substitute_doubletons(self) -> bool:
        """An equality a_j x_j + a_k x_k = b with x_j continuous removes
        x_j = (b - a_k x_k) / a_j, whose bounds pass to x_k.  Of two
        continuous columns, x_j is the one of larger |a|, so that
        |a_k / a_j| <= 1.  Substitutions made together have distinct
        x_j that none of them keeps; several may keep one x_k."""
        A, rl = self.A, self.rl
        rows = np.flatnonzero(self.live_row & (rl == self.rh)
                              & (np.count_nonzero(A, axis=1) == 2))
        if not rows.size:
            return False
        pair = np.nonzero(A[rows])[1].reshape(-1, 2)
        a = A[rows[:, None], pair]
        free = ~self.integer[pair]
        second = free[:, 1] & (~free[:, 0]
                               | (np.abs(a[:, 1]) > np.abs(a[:, 0])))
        gone, kept, chosen = set(), set(), []
        for t, (j0, j1) in enumerate(pair.tolist()):
            jt, kt = (j1, j0) if second[t] else (j0, j1)
            if ((free[t, 0] or free[t, 1]) and jt not in gone
                    and jt not in kept and kt not in gone):
                gone.add(jt)
                kept.add(kt)
                chosen.append(t)
        if not chosen:
            return False
        which = second[chosen].astype(int)
        rows, pair, a = rows[chosen], pair[chosen], a[chosen]
        t = np.arange(rows.size)
        j, k = pair[t, which], pair[t, 1 - which]
        aj, ak = a[t, which], a[t, 1 - which]
        b = rl[rows]
        # x_k takes the range that keeps x_j = (b - a_k x_k) / a_j in
        # its bounds
        ends_lo, ends_up = (b - aj * self.lo[j]) / ak, \
            (b - aj * self.up[j]) / ak
        applied = self._narrow(
            k, np.minimum(ends_lo, ends_up), np.maximum(ends_lo, ends_up),
            np.abs(ak) / np.minimum(np.minimum(np.abs(aj), np.abs(ak)),
                                    1.0))
        rows, j, k, aj, ak, b = (rows[applied], j[applied], k[applied],
                                 aj[applied], ak[applied], b[applied])
        # every other row's x_j term moves onto x_k and the range
        ratio, shift = -ak / aj, b / aj
        add = A[:, j] * ratio
        start = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        old = A[:, k[start]]
        new = old + np.add.reduceat(add, start, axis=1)
        size = np.abs(old) + np.add.reduceat(np.abs(add), start, axis=1)
        new[np.abs(new) <= _CANCELLED * size] = 0.0
        A[:, k[start]] = new
        moved = A[:, j] @ shift
        self.rl = rl - moved
        self.rh = self.rh - moved
        self.live_row[rows] = False
        self._remove(j, k, ratio, shift)
        return True

    def result(self, problem: MilpProblem) -> _Presolved:
        """The reduction, its rows in their original order; a range row
        becomes a '>=' row followed by a '<=' row."""
        rl, rh = self.rl, self.rh
        two = np.isfinite(rl) & np.isfinite(rh) & (rl < rh)
        bounded = self.live_row & (np.isfinite(rl) | np.isfinite(rh))
        rows = np.repeat(np.arange(rl.size), bounded * (1 + two))
        first = np.concatenate([[True], rows[1:] != rows[:-1]])[:rows.size]
        senses = np.where(rl[rows] == rh[rows], 0,
                          np.where(first & np.isfinite(rl[rows]), 1, -1))
        live = self.live_col
        renumber = np.append(np.cumsum(live) - 1, -1)   # constants stay -1
        reduced = MilpProblem(
            c=np.zeros(int(live.sum())), A=self.A[rows][:, live],
            senses=senses.astype(np.int8),
            b=np.where(senses >= 0, rl[rows], rh[rows]),
            lower=self.lo[live], upper=self.up[live],
            integer=self.integer[live])
        return _Presolved(reduced, renumber[self.col], self.coef, self.q,
                          tuple(np.array(a) for a in _constraints(problem)),
                          self.tol)


def _presolve(problem: MilpProblem, opts: SolverOptions) -> _Presolved | None:
    """The reduced problem, or None when presolve proves it infeasible."""
    work = _Presolve(problem, opts)
    try:
        work.run()
    except _Infeasible:
        return None
    return work.result(problem)


def _check_postsolved(problem: MilpProblem, x: np.ndarray,
                      opts: SolverOptions) -> None:
    """The original rows, bounds and integrality at ``x``, within the
    tolerance of ``_verified_optimum``."""
    b = np.asarray(problem.b, dtype=float)
    senses = np.asarray(problem.senses)
    tol = opts.tol_feas * (1.0 + np.abs(b).max(initial=0.0))
    residual = np.asarray(problem.A, dtype=float) @ x - b
    integral = np.asarray(problem.integer, dtype=bool)
    worst = max(
        np.max(np.where(senses < 0, residual, np.where(
            senses > 0, -residual, np.abs(residual))), initial=0.0),
        np.max(np.asarray(problem.lower, dtype=float) - x, initial=0.0),
        np.max(x - np.asarray(problem.upper, dtype=float), initial=0.0),
        np.max(np.abs(x[integral] - np.round(x[integral])), initial=0.0))
    if not worst <= tol:
        raise SolverFailureError(
            f"the postsolved solution misses the original problem by "
            f"{worst:.3g} (tolerance {tol:.3g})")


# ---------------------------------------------------------------------------
# Branch and bound


def solve_milp(problem: MilpProblem, options: SolverOptions | None = None,
               start: Basis | None = None) -> MilpSolution:
    """Presolve, branch and bound on the reduced problem, postsolve.

    After the size check, presolve repeats these reductions until none
    applies: fixed columns fold into the right-hand sides; singleton
    rows become bounds, rounded inward on integer columns; each equality
    row on two columns, one continuous, substitutes that column away;
    rows that are multiples of one another merge into one range (a
    '<='/'>=' pair with equal bounds into an equality); empty rows are
    dropped.  A contradiction beyond the phase-1 emptiness cut returns
    INFEASIBLE at once.  The reductions form one affine map x = P x_red
    + q and never read the objective, so problems that differ in ``c``
    alone reduce alike.  ``_branch_and_bound`` solves the reduced
    problem; its point is mapped back and checked against the original
    rows, bounds and integrality at ``_verified_optimum``'s tolerance,
    and a miss raises ``SolverFailureError``.  ``x``, ``objective`` and
    ``best_bound`` refer to the original problem; ``solved_rows`` and
    ``solved_cols`` give the size of the reduced one.

    ``root_basis`` is a basis of the reduced problem and carries the
    reduction.  Given back as ``start`` for a problem with equal rows,
    bounds and integrality (another objective), it spares presolve and
    warm-starts the root; otherwise presolve runs again, and a start
    whose shape does not fit the new reduction is ignored and the root
    solved cold.
    """
    opts = options or SolverOptions()
    _check_size(problem.num_rows, problem.num_vars)
    presolved = start.presolved if start is not None else None
    if presolved is None or not presolved.reduces(problem, opts):
        presolved = _presolve(problem, opts)
        if presolved is None:
            return MilpSolution(SolveStatus.INFEASIBLE, None, None, None,
                                0, 0)
    reduced, offset = presolved.objective(problem)
    if start is not None and not presolved.fits(start):
        start = None
    sol = _branch_and_bound(reduced, opts, start)
    sol.solved_rows, sol.solved_cols = reduced.num_rows, reduced.num_vars
    if sol.root_basis is not None:
        sol.root_basis = replace(sol.root_basis, presolved=presolved)
    if sol.x is not None:
        sol.x = presolved.postsolve(sol.x)
        _check_postsolved(problem, sol.x, opts)
        sol.objective += offset
    if sol.best_bound is not None:
        sol.best_bound += offset
    return sol


def _branch_and_bound(problem: MilpProblem, opts: SolverOptions,
                      start: Basis | None) -> MilpSolution:
    """Best-bound branch and bound with most-fractional branching.

    Node key is (bound, -depth, sequence): ties on the bound are broken
    by diving deeper first.  Children are solved eagerly so every heap
    entry carries a true LP bound.  A relaxation point that is integral
    within tolerance becomes an incumbent only after re-solving with the
    integer block fixed to its rounding; if that rounding is infeasible
    (possible when a big constant multiplies a near-zero integer
    variable) the point is not trusted and the node is branched instead.

    The root LP starts cold unless ``start`` is given: the
    ``root_basis`` of an earlier solve of this problem under another
    objective, from which the primal simplex finishes (see
    ``_primal_warm_solve``).  Each heap node keeps the optimal
    basis of its relaxation (basic indices and column statuses), and its
    children and its polish LP are warm-started from it: only bounds
    differ, so the basis stays dual feasible and a bounded dual simplex
    repairs it, usually in a few pivots.  The columns, slack bounds and
    costs are built once per problem, and a popped node's basis is
    factored once (B^{-1} and reduced costs), each child pivoting on its
    own copy; a singular basis sends its children to a cold solve.  A
    warm LP prunes a child as infeasible only on a Farkas row confirmed
    from the original data, and falls back to a cold solve otherwise.
    """
    cols = _Columns(*_prepare(problem))
    int_idx = np.nonzero(problem.integer)[0]
    sign = -1.0 if problem.maximize else 1.0

    def lp(lo: np.ndarray, up: np.ndarray, start: Basis,
           factor: _Factor | None) -> LpSolution:
        return _warm_solve(cols, lo, up, start, factor, opts)

    def fractionality(x: np.ndarray) -> np.ndarray:
        v = x[int_idx]
        return np.abs(v - np.round(v))

    iterations = 0
    nodes = 0
    incumbent: np.ndarray | None = None
    inc_obj = np.inf
    heap: list[tuple[float, int, int, np.ndarray, np.ndarray, np.ndarray,
                     Basis]] = []
    seq = itertools.count()

    def polish(relaxed: LpSolution) -> tuple[np.ndarray | None, float]:
        """Exact solution at the rounded integer assignment, or None
        when that assignment is infeasible."""
        nonlocal iterations
        lo_f = np.asarray(problem.lower, dtype=float).copy()
        up_f = np.asarray(problem.upper, dtype=float).copy()
        fixed = np.round(relaxed.x[int_idx])
        lo_f[int_idx] = fixed
        up_f[int_idx] = fixed
        sol = lp(lo_f, up_f, relaxed.basis, cols.factor(relaxed.basis))
        iterations += sol.iterations
        if sol.status == SolveStatus.OPTIMAL:
            return sol.x, sol.objective
        return None, np.inf

    def offer(sol: LpSolution, lo: np.ndarray, up: np.ndarray,
              negdepth: int) -> None:
        """Turn a solved relaxation into an incumbent or a heap node."""
        nonlocal incumbent, inc_obj
        if sol.objective >= inc_obj - opts.tol_gap:
            return
        if int_idx.size and fractionality(sol.x).max(initial=0.0) > opts.tol_int:
            heapq.heappush(heap, (sol.objective, negdepth, next(seq),
                                  lo, up, sol.x, sol.basis))
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
    root = (_simplex_solve(cols, lo0, up0, opts) if start is None
            else _primal_warm_solve(cols, lo0, up0, start, opts))
    iterations += root.iterations
    if root.status != SolveStatus.OPTIMAL:
        return MilpSolution(root.status, None, None, None, 0, iterations)

    status = SolveStatus.OPTIMAL
    best_bound = root.objective
    offer(root, lo0, up0, 0)

    while heap:
        bound, negdepth, _, lo, up, x, basis = heapq.heappop(heap)
        best_bound = bound
        if bound >= inc_obj - opts.tol_gap:
            best_bound = inc_obj  # everything left is dominated
            break
        if nodes >= opts.max_nodes:
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
            if child_lo[v] > child_up[v]:
                continue
            sol = lp(child_lo, child_up, basis, factor)
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
    else:
        if status == SolveStatus.OPTIMAL and incumbent is not None:
            best_bound = inc_obj

    if status == SolveStatus.OPTIMAL:
        if incumbent is None:
            return MilpSolution(SolveStatus.INFEASIBLE, None, None, None,
                                nodes, iterations, root.basis)
        return MilpSolution(SolveStatus.OPTIMAL, incumbent,
                            sign * inc_obj, sign * best_bound,
                            nodes, iterations, root.basis)
    obj = sign * inc_obj if incumbent is not None else None
    return MilpSolution(status, incumbent, obj, sign * best_bound,
                        nodes, iterations, root.basis)


def _with(arr: np.ndarray, i: int, value: float) -> np.ndarray:
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
