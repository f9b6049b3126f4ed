"""Minimal reweightings that reproduce the ensemble's predictions on a
finite set of points.

A reweighting w >= 0 reproduces every stored prediction (with strict
argmax) iff

    sum_m w_m * (h_m^{c_i}(x_i) - h_m^{c}(x_i)) >= 1   for all i, c != c_i

after normalizing the separation to 1 (w is free to scale).  Two
selectors share these rows: an exact cardinality minimizer (MIP with
on/off indicator variables) and a weight-sum minimizer (a plain LP —
no indicator bound needed, sparsity is a cheap side effect of vertex
solutions rather than a guarantee).  Support is counted against a fixed
zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensemble import (CellSignature, Ensemble, Point, cell_center,
                       cell_scores_batch, cells_of, leaves_of)
from .errors import (InfeasiblePruneError, IterationLimitError,
                     SolverFailureError, TiedPredictionError)
from .solver import (MilpSolution, MilpProblem, ProblemBuilder, SolveStatus,
                     SolverOptions, solve_lp, solve_milp)

ZERO_TOL = 1e-9  # weights at or below this count as removed
TIE_TOL = 1e-12  # original margins at or below this are ties


class PruneSet:
    """Working set of points to preserve, deduplicated by cell.

    Each point is stored with the class the original weights predict
    for it.  Two points in the same cell would generate identical
    constraint rows, so only the first is kept.  Insertion order is
    preserved.
    """

    def __init__(self, ensemble: Ensemble):
        self.ensemble = ensemble
        self.points: list[Point] = []
        self.cells: list[CellSignature] = []
        self.labels: list[int] = []
        self._seen: set[CellSignature] = set()

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

    @property
    def num_trees(self) -> int:
        return self.g.shape[2]

    def min_alpha_margin(self) -> float:
        if self.alpha_margins.size == 0:
            return np.inf
        return float(self.alpha_margins.min())


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


def compute_big_w(ensemble: Ensemble, prune_set: PruneSet,
                  tie_tol: float = TIE_TOL,
                  margins: MarginTable | None = None) -> float:
    """Upper bound W on any single weight the cardinality minimizer may
    need.  Scaling the original weights by 1/delta_min satisfies every
    constraint row, so W = 10 * max(alpha) / delta_min leaves generous
    slack; the caller is expected to double W and re-solve should a
    returned weight come within 1e-6*W of it.  Raises if the original
    prediction is tied on some entry — no reweighting can reproduce a
    tie with a strict margin."""
    if margins is None:
        margins = build_margins(ensemble, prune_set)
    delta = margins.min_alpha_margin()
    if delta == np.inf:  # empty set: any positive scale works
        return 10.0 * max(ensemble.alpha)
    if delta <= tie_tol:
        i, c = np.unravel_index(np.argmin(margins.alpha_margins),
                                margins.alpha_margins.shape)
        raise TiedPredictionError(
            f"original prediction is tied on pruning point {i} (class "
            f"{margins.labels[i]} against {c}); predictions cannot be "
            "preserved with a strict margin")
    return 10.0 * max(ensemble.alpha) / delta


@dataclass
class PruneResult:
    weights: np.ndarray       # (M,) reweighting, zeros on removed trees
    support: tuple[int, ...]  # indices of kept trees
    objective: float          # solver objective (cardinality / weight sum)
    nodes: int                # branch-and-bound nodes (0 for the LP)
    iterations: int           # simplex pivots


def support_of(weights: Sequence[float], zero_tol: float = ZERO_TOL
               ) -> tuple[int, ...]:
    return tuple(int(m) for m in np.nonzero(np.asarray(weights) > zero_tol)[0])


def add_keep_rows(pb: ProblemBuilder, margins: MarginTable,
                  cols: dict[int, int]) -> None:
    """Add the rows keep_{i}_{c}: sum_m g[i, c, m] w_m >= 1 for every
    entry i and class c other than its label, over the trees m in
    ``cols`` (tree -> weight column); other trees are left out."""
    for i in range(margins.num_entries):
        label = int(margins.labels[i])
        for c in range(margins.num_classes):
            if c == label:
                continue
            row = margins.g[i, c]
            pb.add_row([(col, row[m]) for m, col in cols.items()
                        if row[m] != 0.0], ">=", 1.0, name=f"keep_{i}_{c}")


def _min_weights_on_support(margins: MarginTable, active: np.ndarray,
                            weight_bound: float,
                            options: SolverOptions | None
                            ) -> np.ndarray | None:
    """Smallest-weight-sum solution restricted to the active trees, or
    None if the restricted LP fails (it is feasible by construction, so
    a failure means numerics)."""
    M = margins.num_trees
    pb = ProblemBuilder()
    w_idx = [pb.add_var(f"w{m}", lo=0.0,
                        up=weight_bound if active[m] else 0.0, obj=1.0)
             for m in range(M)]
    add_keep_rows(pb, margins, {m: w_idx[m] for m in range(M) if active[m]})
    sol = solve_lp(pb.build(), options)
    if sol.status != SolveStatus.OPTIMAL:
        return None
    return np.array(sol.x[:M])


def prune_l0(ensemble: Ensemble, prune_set: PruneSet, weight_bound: float,
             options: SolverOptions | None = None,
             solve: Callable[[MilpProblem, SolverOptions | None],
                             MilpSolution] = solve_milp,
             margins: MarginTable | None = None) -> PruneResult:
    """Fewest trees whose reweighting reproduces every working-set
    prediction.  Exact: binary activity indicators u_m, linked by
    w_m <= W u_m with W = ``weight_bound``.  The returned weights are
    canonical for the chosen support: the weight sum is re-minimized
    with the selection fixed, so a weight touches W only when the
    constraints truly force it there."""
    if margins is None:
        margins = build_margins(ensemble, prune_set)
    M = ensemble.num_trees
    pb = ProblemBuilder()
    w_idx = [pb.add_var(f"w{m}", lo=0.0, up=weight_bound) for m in range(M)]
    u_idx = [pb.add_var(f"u{m}", lo=0.0, up=1.0, obj=1.0, integer=True)
             for m in range(M)]
    add_keep_rows(pb, margins, dict(enumerate(w_idx)))
    for m in range(M):
        pb.add_row([(w_idx[m], 1.0), (u_idx[m], -weight_bound)], "<=", 0.0,
                   name=f"link_{m}")
    sol = solve(pb.build(), options)
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasiblePruneError(
            "no faithful reweighting exists on the working set within "
            f"the weight bound {weight_bound}")
    if sol.status == SolveStatus.ITERATION_LIMIT:
        raise IterationLimitError("tree selection hit the solver node limit")
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"unexpected solver status {sol.status}")
    active = np.round(sol.x[M:2 * M]) > 0.0
    weights = _min_weights_on_support(margins, active, weight_bound, options)
    if weights is None:
        weights = np.array(sol.x[:M])
    weights[~active] = 0.0
    weights[weights <= ZERO_TOL] = 0.0
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(sol.objective), nodes=sol.nodes,
                       iterations=sol.iterations)


def prune_l1(ensemble: Ensemble, prune_set: PruneSet,
             options: SolverOptions | None = None,
             margins: MarginTable | None = None) -> PruneResult:
    """Smallest weight sum that reproduces every working-set
    prediction.  A plain LP."""
    if margins is None:
        margins = build_margins(ensemble, prune_set)
    M = ensemble.num_trees
    pb = ProblemBuilder()
    w_idx = [pb.add_var(f"w{m}", lo=0.0, obj=1.0) for m in range(M)]
    add_keep_rows(pb, margins, dict(enumerate(w_idx)))
    sol = solve_lp(pb.build(), options)
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasiblePruneError(
            "no faithful reweighting exists on the working set")
    if sol.status == SolveStatus.ITERATION_LIMIT:
        raise IterationLimitError("weight minimization hit the pivot limit")
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"unexpected solver status {sol.status}")
    weights = np.array(sol.x[:M])
    weights[weights <= ZERO_TOL] = 0.0
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(sol.objective), nodes=0,
                       iterations=sol.iterations)
