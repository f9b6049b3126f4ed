"""Minimal reweightings that reproduce the ensemble's predictions on a
finite set of points.

A reweighting w >= 0 reproduces every stored prediction (with strict
argmax) iff

    sum_m w_m * (h_m^{c_i}(x_i) - h_m^{c}(x_i)) >= 1   for all i, c != c_i

after normalizing the separation to 1 (w is free to scale): the keep
rows G w >= 1.  The weight-sum minimizer is a plain LP, sparse as a side
effect of vertex solutions.  The exact cardinality minimizer is an
implicit hitting-set loop (combinatorial Benders decomposition).  Its
support checks are one LP over all trees whose bounds say which trees
are tested, so that a check on one more tree re-solves from the basis
of the check before it.  Support is counted against a fixed zero
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .ensemble import (CellSignature, Ensemble, Point, cell_center,
                       cell_scores_batch, cells_of, leaves_of)
from .errors import (InfeasiblePruneError, IterationLimitError,
                     SolverFailureError, TiedPredictionError)
from .solver import (Basis, LpSolution, MilpSolution, MilpProblem,
                     SolveStatus, SolverOptions, solve_lp, solve_milp)

ZERO_TOL = 1e-9  # weights at or below this count as removed
TIE_TOL = 1e-12  # original margins at or below this are ties


class PruneSet:
    """Working set of points to preserve, deduplicated by cell.

    Each point is stored with the class the original weights predict
    for it.  Two points in the same cell would generate identical
    constraint rows, so only the first is kept.  Insertion order is
    preserved.  ``conflicts`` keeps the ones ``prune_l0`` found, in order.
    """

    def __init__(self, ensemble: Ensemble):
        self.ensemble = ensemble
        self.points: list[Point] = []
        self.cells: list[CellSignature] = []
        self.labels: list[int] = []
        self._seen: set[CellSignature] = set()
        self.conflicts: dict[tuple[int, ...], None] = {}

    def add_point(self, x: Sequence[float]) -> bool:
        """Add a point; returns False if its cell was already present."""
        return self.add_points([x]) == 1

    def add_points(self, X) -> int:
        """Add the rows of ``X`` in order, each unless its cell is
        already present; returns how many were added.  All rows are
        validated before any is added."""
        cells = cells_of(self.ensemble.schema, X)
        return self._extend(np.asarray(X, dtype=float), cells)

    def add_cell(self, cell: CellSignature) -> bool:
        """Add a cell via its center representative."""
        center = cell_center(self.ensemble.schema, cell)   # validates
        return self._extend(np.array([center]),
                            np.array([cell], dtype=np.int64)) == 1

    def _extend(self, points: np.ndarray, cells: np.ndarray) -> int:
        """Add the rows whose cells are new, in order, each labelled with
        the class the original weights predict; all in one routing."""
        new = []
        for i, cell in enumerate(map(tuple, cells.tolist())):
            if cell not in self._seen:
                self._seen.add(cell)
                self.cells.append(cell)
                new.append(i)
        if new:
            ens = self.ensemble
            self.points.extend(map(tuple, points[new].tolist()))
            scores = cell_scores_batch(ens, ens.alpha, cells[new])
            self.labels.extend(np.argmax(scores, axis=1).tolist())
        return len(new)

    def __contains__(self, cell: CellSignature) -> bool:
        return cell in self._seen

    def __len__(self) -> int:
        return len(self.cells)


@dataclass
class MarginTable:
    """Per-entry, per-class, per-tree margin coefficients.

    ``g[i, c, m]`` is tree m's score difference (label class minus
    class c) on entry i, in [-1, 1]; the row for c == label is
    identically zero and never turned into a constraint.
    ``alpha_margins`` holds the original weights' separation on each
    (entry, class) pair, with +inf at the label position so minima
    skip it.
    """

    g: np.ndarray              # (n, C, M)
    labels: np.ndarray         # (n,)
    alpha_margins: np.ndarray  # (n, C)

    @property
    def num_entries(self) -> int:
        return self.g.shape[0]

    @property
    def num_classes(self) -> int:
        return self.g.shape[1]

    def min_alpha_margin(self) -> float:
        if self.alpha_margins.size == 0:
            return np.inf
        return float(self.alpha_margins.min())

    def keep_rows(self) -> np.ndarray:
        """G: the rows g[i, c] for c != label i, in (i, c) order."""
        return self.g[np.isfinite(self.alpha_margins)]


def build_margins(ensemble: Ensemble, prune_set: PruneSet) -> MarginTable:
    n = len(prune_set)
    cells = np.array(prune_set.cells, dtype=np.int64).reshape(
        n, ensemble.schema.num_features)
    labels = np.asarray(prune_set.labels, dtype=np.int64)
    scores = ensemble.flat.scores[leaves_of(ensemble, cells)]  # (n, M, C)
    rows = np.arange(n)
    diff = scores[rows, :, labels][:, :, None] - scores         # (n, M, C)
    alpha_margins = np.asarray(ensemble.alpha) @ diff           # (n, C)
    alpha_margins[rows, labels] = np.inf
    return MarginTable(g=np.ascontiguousarray(diff.transpose(0, 2, 1)),
                       labels=labels, alpha_margins=alpha_margins)


def _untied_margin(margins: MarginTable, tie_tol: float) -> float:
    """Smallest original margin on the working set (inf if it is empty);
    raises on a tie, which no strict-margin reweighting reproduces."""
    delta = margins.min_alpha_margin()
    if delta <= tie_tol:
        i, c = np.unravel_index(np.argmin(margins.alpha_margins),
                                margins.alpha_margins.shape)
        raise TiedPredictionError(
            f"original prediction is tied on pruning point {i} (class "
            f"{margins.labels[i]} against {c}); predictions cannot be "
            "preserved with a strict margin")
    return delta


def compute_big_w(ensemble: Ensemble, prune_set: PruneSet,
                  tie_tol: float = TIE_TOL,
                  margins: MarginTable | None = None) -> float:
    """Weight bound W = 10 * max(alpha) / delta_min (delta_min = 1 on an
    empty set) of a big-W cardinality MIP (w_m <= W u_m).  alpha/delta_min
    keeps every row, but a sparser support may need more than W.  No
    caller doubles W: it sizes the tests' big-W reference.  Raises on a
    tie."""
    margins = margins or build_margins(ensemble, prune_set)
    delta = _untied_margin(margins, tie_tol)
    return 10.0 * max(ensemble.alpha) / (delta if delta < np.inf else 1.0)


@dataclass
class PruneResult:
    weights: np.ndarray       # (M,) reweighting, zeros on removed trees
    support: tuple[int, ...]  # indices of kept trees
    objective: float          # solver objective (cardinality / weight sum)
    nodes: int                # B&B nodes summed over master solves (0 for l1)
    iterations: int           # simplex pivots


def support_of(weights: Sequence[float], zero_tol: float = ZERO_TOL
               ) -> tuple[int, ...]:
    return tuple(int(m) for m in np.nonzero(np.asarray(weights) > zero_tol)[0])


def _ones_program(A: np.ndarray, upper: float,
                  integer: bool = False) -> MilpProblem:
    """min sum(x) s.t. A x >= 1, 0 <= x <= ``upper``."""
    rows, cols = A.shape
    return MilpProblem(c=np.ones(cols), A=A,
                       senses=np.ones(rows, dtype=np.int8),
                       b=np.ones(rows), lower=np.zeros(cols),
                       upper=np.full(cols, upper),
                       integer=np.full(cols, integer))


def min_weight_sum(G: np.ndarray, trees: Sequence[int],
                   options: SolverOptions | None = None
                   ) -> tuple[np.ndarray, LpSolution]:
    """min sum(w) s.t. G[:, trees] w >= 1, w >= 0: the LP's solution and
    the weights over all trees, zero elsewhere and at or below ZERO_TOL."""
    trees = np.asarray(trees, dtype=np.int64)
    sol = solve_lp(_ones_program(G[:, trees], np.inf), options)
    weights = np.zeros(G.shape[1])
    if sol.status == SolveStatus.OPTIMAL:
        weights[trees] = sol.x
        weights[weights <= ZERO_TOL] = 0.0
    return weights, sol


def prune_l0(ensemble: Ensemble, prune_set: PruneSet,
             options: SolverOptions | None = None,
             solve: Callable[[MilpProblem, SolverOptions | None],
                             MilpSolution] = solve_milp,
             margins: MarginTable | None = None) -> PruneResult:
    """Fewest trees whose reweighting reproduces every working-set
    prediction, exactly, by implicit hitting sets.  A conflict is a set
    of trees that every working support meets, such as a row's cover
    {m : g_m > 0}.  ``solve`` picks a smallest S meeting every conflict
    K (min sum(u) s.t. sum_{m in K} u_m >= 1, u binary); S works iff
    max sum(y) s.t. y'G_S <= 0, 0 <= y <= 1 is 0 (Farkas).  Else S grows
    to a maximal failing set (every tree with y'g_m <= 0, then the others
    that keep it failing), whose complement S misses: the next conflict.
    The S that works gets its smallest weight sum.  Conflicts live on
    ``prune_set``, so ``margins`` must be its table.

    Every check is the one program max sum(y) s.t. g_m'y - t_m <= 0 for
    each tree m, 0 <= y <= 1, where t_m is fixed at 0 on the tested
    trees and ranges over [0, inf) on the others.  The first check of a
    round is solved cold; each growth check tests one tree more than the
    last failing check, so only bounds tighten, and it re-solves from
    that check's basis (``solve_lp(start=...)``), which stays dual
    feasible.  Nothing outlives the call but the conflicts."""
    margins = margins or build_margins(ensemble, prune_set)
    _untied_margin(margins, TIE_TOL)
    G = margins.keep_rows()
    conflicts = prune_set.conflicts
    for cover in G > 0.0:
        conflicts[tuple(np.flatnonzero(cover).tolist())] = None
    nodes = pivots = 0
    rows, M = G.shape
    eye = np.eye(M, dtype=bool)
    check = MilpProblem(c=np.concatenate([np.ones(rows), np.zeros(M)]),
                        A=np.hstack([G.T, -np.eye(M)]),
                        senses=np.full(M, -1, dtype=np.int8), b=np.zeros(M),
                        lower=np.zeros(rows + M),
                        upper=np.concatenate([np.ones(rows),
                                              np.full(M, np.inf)]),
                        integer=np.zeros(rows + M, dtype=bool), maximize=True)

    def failed_check(trees: np.ndarray, start: Basis | None = None
                     ) -> LpSolution | None:
        """None if the masked trees can keep every row, else the check's
        solution, whose y is a ray: scaled to largest entry 1, so failing
        optima are >= 1.  ``start`` is the basis of a failing check on
        fewer trees."""
        nonlocal pivots
        upper = check.upper.copy()
        upper[rows:][trees] = 0.0
        sol = solve_lp(replace(check, upper=upper), options, start=start)
        pivots += sol.iterations
        if sol.status != SolveStatus.OPTIMAL:
            raise SolverFailureError(f"check LP ended {sol.status.value}")
        return sol if sol.objective > 0.5 else None

    while True:
        A = np.zeros((len(conflicts), ensemble.num_trees))
        for k, trees in enumerate(conflicts):
            A[k, list(trees)] = 1.0
        pick = solve(_ones_program(A, 1.0, integer=True), options)
        if pick.status == SolveStatus.INFEASIBLE:  # an empty conflict
            raise InfeasiblePruneError(
                "no faithful reweighting exists on the working set")
        if pick.status == SolveStatus.ITERATION_LIMIT:
            raise IterationLimitError(
                "tree selection hit the solver node limit")
        if pick.status != SolveStatus.OPTIMAL:
            raise SolverFailureError(f"unexpected solver status {pick.status}")
        nodes += pick.nodes
        pivots += pick.iterations
        chosen = pick.x > 0.5
        fail = failed_check(chosen)
        if fail is None:
            break
        failing = chosen | (fail.x[:rows] @ G <= 0.0)
        for m in range(M):
            if failing[m]:
                continue
            grown = failed_check(failing | eye[m], start=fail.basis)
            if grown is not None:
                fail = grown
                failing |= eye[m] | (fail.x[:rows] @ G <= 0.0)
        conflicts[tuple(np.flatnonzero(~failing).tolist())] = None

    weights, sol = min_weight_sum(G, np.flatnonzero(chosen), options)
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"support LP ended {sol.status.value}")
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(pick.objective), nodes=nodes,
                       iterations=pivots + sol.iterations)


def prune_l1(ensemble: Ensemble, prune_set: PruneSet,
             options: SolverOptions | None = None,
             margins: MarginTable | None = None) -> PruneResult:
    """Smallest weight sum that reproduces every working-set
    prediction.  A plain LP."""
    margins = margins or build_margins(ensemble, prune_set)
    weights, sol = min_weight_sum(margins.keep_rows(),
                                  np.arange(ensemble.num_trees), options)
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasiblePruneError(
            "no faithful reweighting exists on the working set")
    if sol.status == SolveStatus.ITERATION_LIMIT:
        raise IterationLimitError("weight minimization hit the pivot limit")
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"unexpected solver status {sol.status}")
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(sol.objective), nodes=0,
                       iterations=sol.iterations)
