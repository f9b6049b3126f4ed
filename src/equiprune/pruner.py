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

from .ensemble import (CellSignature, Ensemble, cell_scores_batch, cells_of,
                       check_cell, leaves_of)
from .errors import (InfeasiblePruneError, IterationLimitError,
                     SolverFailureError, TiedPredictionError)
from .solver import (_TOL_PIVOT, Basis, LpSolution, MilpSolution,
                     MilpProblem, SolveStatus, solve_lp, solve_milp)

ZERO_TOL = 1e-9  # weights at or below this count as removed
TIE_TOL = 1e-12  # original margins at or below this are ties


class PruneSet:
    """Working set of cells to preserve, each stored once with the class
    the original weights predict on it.  Points are added by their
    cells, since two points in one cell would generate identical
    constraint rows.  Insertion order is preserved.  ``conflicts`` keeps
    the ones ``prune_l0`` found, in order, and ``master_basis`` the root
    basis of its last master, whose rows are the first conflicts.
    """

    def __init__(self, ensemble: Ensemble):
        self.ensemble = ensemble
        self.cells: list[CellSignature] = []
        self.labels: list[int] = []
        self._seen: set[CellSignature] = set()
        self.conflicts: dict[tuple[int, ...], None] = {}
        self.master_basis: Basis | None = None

    def add_points(self, X) -> int:
        """Add the cells of the rows of ``X`` in order, each unless it is
        already present; returns how many were added.  All rows are
        validated before any is added."""
        return self._extend(cells_of(self.ensemble.schema, X))

    def add_cells(self, cells: Sequence[CellSignature]) -> int:
        """Add the cells in order, each unless it is already present;
        returns how many were added.  All are checked (``check_cell``)
        before any is added."""
        schema = self.ensemble.schema
        for cell in cells:
            check_cell(schema, cell)
        return self._extend(np.array(cells, dtype=np.int64).reshape(
            len(cells), schema.num_features))

    def _extend(self, cells: np.ndarray) -> int:
        """Add the rows of ``cells`` that are new, in order, each labelled
        with the class the original weights predict; all in one routing."""
        new = []
        for i, cell in enumerate(map(tuple, cells.tolist())):
            if cell not in self._seen:
                self._seen.add(cell)
                self.cells.append(cell)
                new.append(i)
        if new:
            ens = self.ensemble
            scores = cell_scores_batch(ens, ens.alpha, cells[new])
            self.labels.extend(np.argmax(scores, axis=1).tolist())
        return len(new)

    def __contains__(self, cell: CellSignature) -> bool:
        return cell in self._seen

    def __len__(self) -> int:
        return len(self.cells)


def build_margins(ensemble: Ensemble, prune_set: PruneSet) -> np.ndarray:
    """G, the keep rows: for each entry i and each class c other than its
    label, in (i, c) order, every tree's score difference (label class
    minus c) on the entry, in [-1, 1] and zero at magnitudes the
    solver's pivot tolerance reads as zero.  Entry i owns rows i(C-1)
    ... i(C-1) + C - 2."""
    n = len(prune_set)
    cells = np.array(prune_set.cells, dtype=np.int64).reshape(
        n, ensemble.schema.num_features)
    labels = np.asarray(prune_set.labels, dtype=np.int64)
    scores = ensemble.flat.scores[leaves_of(ensemble, cells)]  # (n, M, C)
    diff = scores[np.arange(n), :, labels][:, :, None] - scores  # (n, M, C)
    diff[np.abs(diff) <= _TOL_PIVOT] = 0.0
    other = np.arange(ensemble.num_classes) != labels[:, None]  # (n, C)
    return diff.transpose(0, 2, 1)[other]


def _untied_margin(ensemble: Ensemble, prune_set: PruneSet,
                   G: np.ndarray) -> float:
    """Smallest original margin on the working set (inf if it is empty);
    raises on a tie, which no strict-margin reweighting reproduces."""
    margins = G @ np.asarray(ensemble.alpha)
    delta = float(margins.min(initial=np.inf))
    if delta <= TIE_TOL:
        i, k = divmod(int(np.argmin(margins)), ensemble.num_classes - 1)
        label = prune_set.labels[i]
        raise TiedPredictionError(
            f"original prediction is tied on pruning point {i} (class "
            f"{label} against {k + (k >= label)}); predictions cannot be "
            "preserved with a strict margin")
    return delta


def compute_big_w(ensemble: Ensemble, prune_set: PruneSet,
                  margins: np.ndarray | None = None) -> float:
    """Weight bound W = 10 * max(alpha) / delta_min (delta_min = 1 on an
    empty set) of a big-W cardinality MIP (w_m <= W u_m).  alpha/delta_min
    keeps every row, but a sparser support may need more than W.  No
    caller doubles W: it sizes the tests' big-W reference.  Raises on a
    tie.  ``margins`` is G of ``prune_set``, built when not given."""
    G = build_margins(ensemble, prune_set) if margins is None else margins
    delta = _untied_margin(ensemble, prune_set, G)
    return 10.0 * max(ensemble.alpha) / (delta if delta < np.inf else 1.0)


@dataclass
class PruneResult:
    weights: np.ndarray       # (M,) reweighting, zeros on removed trees
    support: tuple[int, ...]  # indices of kept trees
    objective: float          # solver objective (cardinality / weight sum)
    nodes: int                # B&B nodes summed over master solves (0 for l1)
    iterations: int           # simplex pivots
    masters: int = 0          # master MILPs solved (l0)
    warm_masters: int = 0     # of them, re-solved from a held root basis


def support_of(weights: Sequence[float]) -> tuple[int, ...]:
    return tuple(int(m) for m in np.nonzero(np.asarray(weights) > ZERO_TOL)[0])


def _ones_program(A: np.ndarray, upper: float,
                  integer: bool = False) -> MilpProblem:
    """min sum(x) s.t. A x >= 1, 0 <= x <= ``upper``."""
    rows, cols = A.shape
    return MilpProblem(c=np.ones(cols), A=A,
                       senses=np.ones(rows, dtype=np.int8),
                       b=np.ones(rows), lower=np.zeros(cols),
                       upper=np.full(cols, upper),
                       integer=np.full(cols, integer))


def _scale_columns(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G with each column divided by its largest |entry| (1 for a zero
    column), and those scales: a column of tiny entries, which the
    solver would read as zero, gets entries it pivots on."""
    scale = np.abs(G).max(axis=0, initial=0.0)
    scale[scale == 0.0] = 1.0
    return G / scale, scale


def min_weight_sum(G: np.ndarray, trees: Sequence[int]
                   ) -> tuple[np.ndarray, LpSolution]:
    """min sum(w) s.t. G[:, trees] w >= 1, w >= 0: the LP's solution and
    the weights over all trees, zero elsewhere and at or below ZERO_TOL.
    It solves for x = s w on the scaled columns (``_scale_columns``)."""
    trees = np.asarray(trees, dtype=np.int64)
    scaled, scale = _scale_columns(G[:, trees])
    sol = solve_lp(replace(_ones_program(scaled, np.inf), c=1.0 / scale))
    weights = np.zeros(G.shape[1])
    if sol.status == SolveStatus.OPTIMAL:
        weights[trees] = sol.x / scale
        weights[weights <= ZERO_TOL] = 0.0
    return weights, sol


def prune_l0(ensemble: Ensemble, prune_set: PruneSet,
             solve: Callable[..., MilpSolution] = solve_milp,
             margins: np.ndarray | None = None) -> PruneResult:
    """Fewest trees whose reweighting reproduces every working-set
    prediction, exactly, by implicit hitting sets.  A conflict is a set
    of trees that every working support meets, such as a row's cover
    {m : g_m > 0}.  ``solve`` picks a smallest S meeting every conflict
    K (min sum(u) s.t. sum_{m in K} u_m >= 1, u binary); S works iff
    max sum(y) s.t. y'G_S <= 0, 0 <= y <= 1 is 0 (Farkas).  Else S grows
    to a maximal failing set (every tree with y'g_m <= 0, then the others
    that keep it failing), whose complement S misses: the next conflict.
    The S that works gets its smallest weight sum.  Conflicts live on
    ``prune_set``, so ``margins`` must be its G.

    Conflicts only ever join at the end, so each master's rows are the
    last master's plus more.  Every master after the first of a
    ``prune_set`` gets the last one's root basis as ``start=``, and
    ``solve_milp`` re-solves it from there by a dual simplex, with a
    basic slack for each new row.

    Every check is the one program max sum(y) s.t. g_m'y - t_m <= 0 for
    each tree m (g_m scaled by ``_scale_columns``, which keeps each sign
    of g_m'y), 0 <= y <= 1, where t_m is fixed at 0 on the tested
    trees and ranges over [0, inf) on the others.  The first check of a
    round is solved cold; each growth check tests one tree more than the
    last failing check, so only bounds tighten, and it re-solves from
    that check's basis (``solve_lp(start=...)``), which stays dual
    feasible.  Nothing outlives the call but the conflicts and the last
    master's root basis."""
    G = build_margins(ensemble, prune_set) if margins is None else margins
    _untied_margin(ensemble, prune_set, G)
    conflicts = prune_set.conflicts
    for cover in G > 0.0:
        conflicts[tuple(np.flatnonzero(cover).tolist())] = None
    nodes = pivots = masters = warm = 0
    rows, M = G.shape
    eye = np.eye(M, dtype=bool)
    scaled, _ = _scale_columns(G)
    check = MilpProblem(c=np.concatenate([np.ones(rows), np.zeros(M)]),
                        A=np.hstack([scaled.T, -np.eye(M)]),
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
        sol = solve_lp(replace(check, upper=upper), start=start)
        pivots += sol.iterations
        if sol.status != SolveStatus.OPTIMAL:
            raise SolverFailureError(f"check LP ended {sol.status.value}")
        return sol if sol.objective > 0.5 else None

    while True:
        A = np.zeros((len(conflicts), ensemble.num_trees))
        for k, trees in enumerate(conflicts):
            A[k, list(trees)] = 1.0
        pick = solve(_ones_program(A, 1.0, integer=True),
                     start=prune_set.master_basis)
        prune_set.master_basis = pick.root_basis
        masters += 1
        warm += pick.warm_root
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
        failing = chosen | (fail.x[:rows] @ scaled <= 0.0)
        for m in range(M):
            if failing[m]:
                continue
            grown = failed_check(failing | eye[m], start=fail.basis)
            if grown is not None:
                fail = grown
                failing |= eye[m] | (fail.x[:rows] @ scaled <= 0.0)
        conflicts[tuple(np.flatnonzero(~failing).tolist())] = None

    weights, sol = min_weight_sum(G, np.flatnonzero(chosen))
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"support LP ended {sol.status.value}")
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(pick.objective), nodes=nodes,
                       iterations=pivots + sol.iterations, masters=masters,
                       warm_masters=warm)


def prune_l1(ensemble: Ensemble, prune_set: PruneSet,
             margins: np.ndarray | None = None) -> PruneResult:
    """Smallest weight sum that reproduces every working-set
    prediction.  A plain LP.  Raises on a tie, as ``prune_l0`` does."""
    G = build_margins(ensemble, prune_set) if margins is None else margins
    _untied_margin(ensemble, prune_set, G)
    weights, sol = min_weight_sum(G, np.arange(ensemble.num_trees))
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
