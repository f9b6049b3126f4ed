"""Minimal reweightings that reproduce the ensemble's predictions on a
finite set of points.

A reweighting w >= 0 reproduces every stored prediction (with strict
argmax) iff

    sum_m w_m * (h_m^{c_i}(x_i) - h_m^{c}(x_i)) >= 1   for all i, c != c_i

after normalizing the separation to 1 (w is free to scale): the keep
rows G w >= 1.  The weight-sum minimizer is a plain LP, sparse as a side
effect of vertex solutions.  The exact cardinality minimizer is an
implicit hitting-set loop (combinatorial Benders decomposition), whose
master is answered from a lower bound when a cheap hitting set meets it,
and otherwise solved as a MILP that searches only below the cheap set
and stops at the bound.  Its support checks are one LP over all trees
whose bounds say which trees are tested, so that a check on one more
tree re-solves from the basis of the one before it; a check whose
answer is already known solves no LP.  No basis outlives the call that
solved it.  Support is counted against a fixed zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .ensemble import (CellSignature, Ensemble, cell_scores_batch, cells_of,
                       check_cell, leaves_of)
from .errors import (InfeasiblePruneError, IterationLimitError,
                     SolverFailureError, TiedPredictionError)
from .solver import (_TOL_PIVOT, Basis, MilpProblem, Solution, SolveStatus,
                     solve_lp, solve_milp)

ZERO_TOL = 1e-9  # weights at or below this count as removed
TIE_TOL = 1e-12  # original margins at or below this are ties


class PruneSet:
    """Working set of cells to preserve, each stored once with the class
    the original weights predict on it.  Points are added by their
    cells, since two points in one cell would generate identical
    constraint rows.  Insertion order is preserved.  ``conflicts`` keeps
    the ones ``prune_l0`` found, in order, and ``master_trees`` its last
    master optimum, a smallest set of trees meeting every conflict then
    known, whose size bounds every later master from below (conflicts
    only join).
    """

    def __init__(self, ensemble: Ensemble):
        self.ensemble = ensemble
        self.cells: list[CellSignature] = []
        self.labels: list[int] = []
        self._seen: set[CellSignature] = set()
        self.conflicts: dict[tuple[int, ...], None] = {}
        self.master_trees: tuple[int, ...] = ()

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


def build_margins(prune_set: PruneSet) -> np.ndarray:
    """G, the keep rows: for each entry i and each class c other than its
    label, in (i, c) order, every tree's score difference (label class
    minus c) on the entry, in [-1, 1] and zero at magnitudes the
    solver's pivot tolerance reads as zero.  Entry i owns rows i(C-1)
    ... i(C-1) + C - 2."""
    ensemble, n = prune_set.ensemble, len(prune_set)
    cells = np.array(prune_set.cells, dtype=np.int64).reshape(
        n, ensemble.schema.num_features)
    labels = np.asarray(prune_set.labels, dtype=np.int64)
    scores = ensemble.flat.scores[leaves_of(ensemble, cells)]  # (n, M, C)
    diff = scores[np.arange(n), :, labels][:, :, None] - scores  # (n, M, C)
    diff[np.abs(diff) <= _TOL_PIVOT] = 0.0
    other = np.arange(ensemble.num_classes) != labels[:, None]  # (n, C)
    return diff.transpose(0, 2, 1)[other]


def _untied_margin(prune_set: PruneSet, G: np.ndarray) -> float:
    """Smallest original margin on the working set (inf if it is empty);
    raises on a tie, which no strict-margin reweighting reproduces."""
    ensemble = prune_set.ensemble
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


def compute_big_w(prune_set: PruneSet,
                  margins: np.ndarray | None = None) -> float:
    """Weight bound W = 10 * max(alpha) / delta_min (delta_min = 1 on an
    empty set) of a big-W cardinality MIP (w_m <= W u_m).  alpha/delta_min
    keeps every row, but a sparser support may need more than W.  No
    caller doubles W: it sizes the tests' big-W reference.  Raises on a
    tie.  ``margins`` is G of ``prune_set``, built when not given."""
    G = build_margins(prune_set) if margins is None else margins
    delta = _untied_margin(prune_set, G)
    return (10.0 * max(prune_set.ensemble.alpha)
            / (delta if delta < np.inf else 1.0))


@dataclass
class PruneResult:
    weights: np.ndarray       # (M,) reweighting, zeros on removed trees
    support: tuple[int, ...]  # indices of kept trees
    objective: float          # master optimum (l0) / weight sum (l1)
    nodes: int                # B&B nodes summed over master solves (0 for l1)
    iterations: int           # simplex pivots
    masters: int = 0          # masters answered (l0)
    free_masters: int = 0     # of them, answered by a bound without a MILP
    lps: int = 0              # check and weight-sum LPs solved
    warm_lps: int = 0         # of them, answered warm from a held basis
    free_checks: int = 0      # checks answered without an LP (l0)


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
                   ) -> tuple[np.ndarray, Solution]:
    """min sum(w) s.t. G w >= 1, w >= 0 and w = 0 off ``trees``: the LP's
    solution and the weights over all trees, zero at or below ZERO_TOL.
    It solves for x = s w on ``trees``' scaled columns
    (``_scale_columns``)."""
    trees = np.asarray(trees, dtype=np.int64)
    scaled, scale = _scale_columns(G[:, trees])
    sol = solve_lp(replace(_ones_program(scaled, np.inf), c=1.0 / scale))
    weights = np.zeros(G.shape[1])
    if sol.status == SolveStatus.OPTIMAL:
        weights[trees] = sol.x / scale
        weights[weights <= ZERO_TOL] = 0.0
    return weights, sol


def _known_to_pass(G: np.ndarray, alpha: np.ndarray, trees: np.ndarray,
                   passed: Sequence[np.ndarray]) -> bool:
    """Whether the trees of mask ``trees`` keep every row of G, known
    without a check LP: the original weights on them keep every row
    (G_S alpha_S > TIE_TOL; rescaled, they are a faithful weighting, so
    the check's optimum is 0), or they hold a set of ``passed``, masks
    that kept these rows (a set that keeps every row still does with
    more trees)."""
    return bool(np.all(G[:, trees] @ alpha[trees] > TIE_TOL)
                or any(np.all(trees[p]) for p in passed))


def _packing_bound(A: np.ndarray) -> int:
    """Size of a family of pairwise disjoint rows of the conflict
    incidence A (one row per conflict, one column per tree), taken
    greedily, smallest conflict first: a hitting set meets each of
    them in a tree of its own, so none is smaller."""
    used = np.zeros(A.shape[1], dtype=bool)
    count = 0
    for k in np.argsort(A.sum(axis=1), kind="stable"):
        if not np.any(A[k] & used):
            used |= A[k]
            count += 1
    return count


def _cheap_hitting_set(A: np.ndarray, held: np.ndarray) -> np.ndarray:
    """A set of trees (mask) meeting every row of A, none empty, found
    without a MILP: ``held`` if it meets them all, else the first set
    that swaps one tree of ``held`` for one outside it and meets them
    all, else a greedy set (each time the tree meeting the most rows
    not yet met, the first on a tie)."""
    hits = A[:, held].sum(axis=1)
    missed = hits == 0
    if not missed.any():
        return held
    fills = A[missed].all(axis=0) & ~held   # trees meeting every missed row
    if fills.any():
        for i in np.flatnonzero(held):
            swap = fills & A[(hits == 1) & A[:, i]].all(axis=0)
            if swap.any():
                out = held.copy()
                out[i] = False
                out[np.argmax(swap)] = True
                return out
    chosen = np.zeros(A.shape[1], dtype=bool)
    open_rows = np.ones(A.shape[0], dtype=bool)
    while open_rows.any():
        m = int(np.argmax(A[open_rows].sum(axis=0)))
        chosen[m] = True
        open_rows &= ~A[:, m]
    return chosen


def _capped_master(A: np.ndarray, bound: int, cap: int) -> MilpProblem:
    """min sum(u) s.t. sum(u) <= cap, sum(u) >= bound, A u >= 1, u
    binary: the master over conflict incidence A, its two size rows
    first."""
    prog = _ones_program(np.vstack([np.ones((2, A.shape[1])), A]), 1.0,
                         integer=True)
    prog.senses[0] = -1
    prog.b[:2] = cap, bound
    return prog


def prune_l0(prune_set: PruneSet,
             solve: Callable[..., Solution] = solve_milp,
             margins: np.ndarray | None = None) -> PruneResult:
    """Fewest trees whose reweighting reproduces every working-set
    prediction, exactly, by implicit hitting sets.  A conflict is a set
    of trees that every working support meets, such as a row's cover
    {m : g_m > 0}.  The master picks a smallest S meeting every
    conflict K (min sum(u) s.t. sum_{m in K} u_m >= 1, u binary); S
    works iff max sum(y) s.t. y'G_S <= 0, 0 <= y <= 1 is 0 (Farkas).
    Else S grows to a maximal failing set (every tree with y'g_m <= 0,
    then the others that keep it failing), whose complement S misses:
    the next conflict.  The S that works gets its smallest weight sum.
    Conflicts live on ``prune_set``, so ``margins`` must be its G.  An
    empty conflict, which no S meets, raises ``InfeasiblePruneError``.

    Each master is answered from a lower bound, ``bound``, the larger
    of two: the last master optimum (``PruneSet.master_trees``), since
    conflicts only join and so the optimum never falls, and the size of
    a family of pairwise disjoint conflicts (``_packing_bound``), which
    S meets in a tree each.  A cheap hitting set (``_cheap_hitting_set``)
    no larger than ``bound`` is optimal and solves no MILP
    (``free_masters``).  Otherwise ``solve`` gets the master capped
    below the cheap set: its first two rows are sum(u) <= |cheap| - 1
    and sum(u) >= bound, then one row per conflict.  No relaxation in
    its branch and bound lies below ``bound`` and every cost is an
    integer, so ``solve_milp`` stops at the first incumbent of size
    ``bound``; INFEASIBLE means no smaller set exists, so the cheap set
    is optimal.  Every answer is thus a hitting set whose size
    a lower bound or the capped MILP proves minimal.

    Every check is the one program max sum(y) s.t. g_m'y - t_m <= 0 for
    each tree m (g_m scaled by ``_scale_columns``, which keeps each sign
    of g_m'y), 0 <= y <= 1, where t_m is fixed at 0 on the tested
    trees and ranges over [0, inf) on the others; its columns are t
    (one per tree), then y (one per keep row).  The first check of a
    round re-solves from the last check the call solved; each growth
    check tests one tree more than the last failing check, so only
    bounds tighten, and it re-solves from that check's basis, which
    stays dual feasible.  Only the call's first solved check, its master
    MILPs and its weight-sum LP start with no basis.

    A check whose answer is known solves no LP (``free_checks``): the
    original weights on the tested trees keep every row, or the tested
    trees hold a set that passed earlier in the call.  Nothing but the
    conflicts and the last master optimum outlives the call."""
    G = build_margins(prune_set) if margins is None else margins
    _untied_margin(prune_set, G)
    conflicts = prune_set.conflicts
    for cover in G > 0.0:
        conflicts[tuple(np.flatnonzero(cover).tolist())] = None
    nodes = pivots = masters = free_masters = 0
    lps = warm_lps = free = 0
    last_check: Basis | None = None     # the basis of the last check solved
    alpha = np.asarray(prune_set.ensemble.alpha, dtype=float)
    passed: list[np.ndarray] = []       # tested sets that passed
    rows, M = G.shape
    eye = np.eye(M, dtype=bool)
    scaled, _ = _scale_columns(G)
    check = MilpProblem(c=np.concatenate([np.zeros(M), np.ones(rows)]),
                        A=np.hstack([-np.eye(M), scaled.T]),
                        senses=np.full(M, -1, dtype=np.int8), b=np.zeros(M),
                        lower=np.zeros(M + rows),
                        upper=np.concatenate([np.full(M, np.inf),
                                              np.ones(rows)]),
                        integer=np.zeros(M + rows, dtype=bool), maximize=True)

    def failed_check(trees: np.ndarray, start: Basis | None
                     ) -> Solution | None:
        """None if the masked trees can keep every row, else the check's
        solution, whose y is a ray: scaled to largest entry 1, so failing
        optima are >= 1.  A check whose answer is known
        (``_known_to_pass``) solves no LP."""
        nonlocal pivots, lps, warm_lps, free, last_check
        if _known_to_pass(G, alpha, trees, passed):
            free += 1
            passed.append(trees)
            return None
        upper = check.upper.copy()
        upper[:M][trees] = 0.0
        sol = solve_lp(replace(check, upper=upper), start=start)
        last_check = sol.basis
        pivots += sol.iterations
        lps += 1
        warm_lps += sol.warm
        if sol.status != SolveStatus.OPTIMAL:
            raise SolverFailureError(f"check LP ended {sol.status.value}")
        if sol.objective > 0.5:
            return sol
        passed.append(trees)
        return None

    while True:
        if () in conflicts:             # no tree can meet it
            raise InfeasiblePruneError(
                "no faithful reweighting exists on the working set")
        A = np.zeros((len(conflicts), M), dtype=bool)
        for k, trees in enumerate(conflicts):
            A[k, list(trees)] = True
        held = np.zeros(M, dtype=bool)
        held[list(prune_set.master_trees)] = True
        bound = max(len(prune_set.master_trees), _packing_bound(A))
        chosen = _cheap_hitting_set(A, held)
        masters += 1
        if chosen.sum() <= bound:
            free_masters += 1
        else:
            pick = solve(_capped_master(A.astype(float), bound,
                                        int(chosen.sum()) - 1))
            nodes += pick.nodes
            pivots += pick.iterations
            if pick.status == SolveStatus.ITERATION_LIMIT:
                raise IterationLimitError(
                    "tree selection hit the solver node limit")
            if pick.status == SolveStatus.OPTIMAL:
                chosen = pick.x > 0.5
            elif pick.status != SolveStatus.INFEASIBLE:  # else cheap is best
                raise SolverFailureError(
                    f"unexpected solver status {pick.status}")
        prune_set.master_trees = tuple(np.flatnonzero(chosen).tolist())
        fail = failed_check(chosen, last_check)
        if fail is None:
            break
        failing = chosen | (fail.x[M:] @ scaled <= 0.0)
        for m in range(M):
            if failing[m]:
                continue
            grown = failed_check(failing | eye[m], fail.basis)
            if grown is not None:
                fail = grown
                failing |= eye[m] | (fail.x[M:] @ scaled <= 0.0)
        conflicts[tuple(np.flatnonzero(~failing).tolist())] = None

    weights, sol = min_weight_sum(G, np.flatnonzero(chosen))
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"support LP ended {sol.status.value}")
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(chosen.sum()), nodes=nodes,
                       iterations=pivots + sol.iterations, masters=masters,
                       free_masters=free_masters, lps=lps + 1,
                       warm_lps=warm_lps + sol.warm, free_checks=free)


def prune_l1(prune_set: PruneSet,
             margins: np.ndarray | None = None) -> PruneResult:
    """Smallest weight sum that reproduces every working-set
    prediction.  A plain LP (``min_weight_sum``), solved from the slack
    basis.  Raises on a tie, as ``prune_l0`` does."""
    G = build_margins(prune_set) if margins is None else margins
    _untied_margin(prune_set, G)
    weights, sol = min_weight_sum(G, np.arange(prune_set.ensemble.num_trees))
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasiblePruneError(
            "no faithful reweighting exists on the working set")
    if sol.status == SolveStatus.ITERATION_LIMIT:
        raise IterationLimitError("weight minimization hit the pivot limit")
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailureError(f"unexpected solver status {sol.status}")
    return PruneResult(weights=weights, support=support_of(weights),
                       objective=float(sol.objective), nodes=0,
                       iterations=sol.iterations, lps=1, warm_lps=sol.warm)
