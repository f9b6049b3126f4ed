"""Self-contained linear and mixed-integer linear programming.

LPs are solved by a bounded-variable revised simplex that keeps the
basis inverse B^{-1} explicitly: an entering column is B^{-1} a_j, the
pivot row of the ratio tests is row r of B^{-1} times the columns, and a
pivot is a rank-1 update of B^{-1} and of the reduced costs.  A cold
solve runs two primal phases from an artificial-variable identity
basis, with Dantzig pricing, a Bland fallback after degenerate stalls,
and a bounded-variable ratio test with bound flips.  A warm solve starts
from a given basis and its factor (B^{-1} and the reduced costs there)
-- in branch and bound, the optimal basis of the node that spawned the
LP, factored once for both children.  It repairs the basics that the
changed bounds push out of range with a bounded dual simplex and
finishes with the primal loop.  A MILP's root LP may start from the
optimal root basis of an earlier solve that differed in the objective
alone: still primal feasible, it needs only the primal loop.

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
LP relaxation with most-fractional branching.  No external solver is
involved; numpy supplies the linear algebra.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
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
    # the optimal basis of the root relaxation, a start for a re-solve
    # after the objective changes (see ``solve_milp``)
    root_basis: Basis | None = None


class ProblemBuilder:
    """Incremental construction of a MilpProblem."""

    def __init__(self, maximize: bool = False):
        self.maximize = maximize
        self._obj: list[float] = []
        self._lo: list[float] = []
        self._up: list[float] = []
        self._int: list[bool] = []
        self._var_names: list[str] = []
        self._rows: list[tuple[dict[int, float], int, float]] = []
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
        i = len(self._rows)
        self._rows.append((coeffs, _SENSE_CODE[sense], float(rhs)))
        self._row_names.append(name if name is not None else f"c{i}")
        return i

    def build(self) -> MilpProblem:
        n = len(self._obj)
        m = len(self._rows)
        A = np.zeros((m, n))
        b = np.empty(m)
        senses = np.empty(m, dtype=np.int8)
        for i, (coeffs, sense, rhs) in enumerate(self._rows):
            for j, a in coeffs.items():
                A[i, j] = a
            senses[i] = sense
            b[i] = rhs
        return MilpProblem(c=np.array(self._obj), A=A, senses=senses, b=b,
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
# solutions.  A row whose coefficients are all below 1 has its leftover
# counted in units of its largest coefficient, the least distance some
# variable must move to absorb it: the check of a returned basis bounds
# such distances, not row residuals.
_PHASE1_EMPTY = 1e-2
# A basis whose 1-norm condition estimate ||B|| ||B^{-1}|| exceeds this is
# singular: np.linalg.inv raises only on an exactly zero pivot and leaves
# entries near 1e16 for a column held twice.  Bases of the test suite and
# the benchmark stay below 1e6.
_MAX_CONDITION = 1e12
# Largest column block [A I I] (8m(n+2m) bytes, more than B^{-1}) that a
# problem may need; a larger one is refused before it is allocated.
_MAX_DENSE_BYTES = 1 << 30


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
        size = 8 * m * (n + 2 * m)
        if size > _MAX_DENSE_BYTES:
            raise ProblemTooLargeError(
                f"a problem of {m} rows and {n} variables needs "
                f"{size / 2**30:.1f} GiB of dense solver arrays; the limit "
                f"is {_MAX_DENSE_BYTES / 2**30:.1f} GiB")
        self.m, self.n = m, n
        self.A = A
        self.A_all = np.hstack([A, np.eye(m), np.eye(m)])
        self.b = b
        self.cost = np.concatenate([c, np.zeros(2 * m)])
        self.slack_lo = np.where(senses == 1, -np.inf, 0.0)
        self.slack_up = np.where(senses == -1, np.inf, 0.0)
        row_max = np.abs(A).max(axis=1, initial=0.0)
        self.row_scale = np.where(row_max > 0, np.minimum(row_max, 1.0), 1.0)

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
    the phase-1 identity basis, and cc is their sum.  With ``factor``
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
        self.basis = np.arange(k, n + 2 * m)
        self.stat = np.concatenate([stat, np.full(m, _BASIC)])
        self.val = np.concatenate([val, np.zeros(m)])
        self.Binv = np.diag(sigma)               # B = diag(sigma)
        self.xB = sigma * residual
        self.cc = np.concatenate([np.zeros(k), np.ones(m)])
        self.d = self.cc - sigma @ self.A_all    # y = 1'B^{-1} = sigma
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


def _prepare(problem: MilpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                            np.ndarray]:
    c = -problem.c if problem.maximize else problem.c
    return (np.asarray(c, dtype=float), np.asarray(problem.A, dtype=float),
            np.asarray(problem.b, dtype=float),
            np.asarray(problem.senses, dtype=np.int8))


def solve_lp(problem: MilpProblem,
             options: SolverOptions | None = None) -> LpSolution:
    """Solve the LP relaxation (integrality flags are ignored)."""
    opts = options or SolverOptions()
    sol = _simplex_solve(_Columns(*_prepare(problem)),
                         np.asarray(problem.lower, dtype=float),
                         np.asarray(problem.upper, dtype=float), opts)
    if problem.maximize and sol.objective is not None:
        sol.objective = -sol.objective
    return sol


# ---------------------------------------------------------------------------
# Branch and bound


def solve_milp(problem: MilpProblem, options: SolverOptions | None = None,
               start: Basis | None = None) -> MilpSolution:
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
    opts = options or SolverOptions()
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
