"""Separation oracle: search the whole feature space for a point where
the reweighted ensemble beats the original prediction.

For an ordered class pair (challenger c, original y) the oracle solves
a MIP over one root-to-leaf flow per tree, tied to a single consistent
feature assignment:

    max  sum_m sum_{leaf v} w_m (score_c(v) - score_y(v)) z_{m,v}
    s.t. sum_m sum_{leaf v} a_m (score_y(v) - score_{y'}(v)) z_{m,v} >= eps
                                            for every class y' != y
         z_{m,root} = 1;  z_left + z_right = z_v  at every split
         threshold indicators μ (ordered), binary indicators and one-hot
         category indicators ν link every split to the same point

A strictly positive optimum exhibits a region where the original
ensemble predicts y with margin >= eps while the reweighting prefers c;
the optimum's cell is turned into a concrete point via cell_center.  If
no pair has a positive optimum, the reweighting provably agrees with
the original prediction on every cell whose winning margin is at least
eps.  An optimum of exactly zero is a third verdict: the reweighted
scores tie on the maximizing cell, where the class is decided by the
tie-break alone; such cells are reported on a separate channel so the
caller can force a strict margin there instead of trusting the
tie-break to agree.

This is the flow formulation of Parmentier & Vidal (ICML 2021) without
their per-depth left-turn totals λ.  Flows stay continuous: once μ/ν
and the binary indicators take 0/1 values, the left/right rows force a
single unit path through each tree, so λ adds nothing to an integral
solution, and the benchmark shows the smaller program solves faster.
The indicator variables are declared integral so every solution pins
down a complete cell, including thresholds no active flow touches.  Pair
subproblems are independent (solved here in a fixed y-major, c-minor
order for reproducible histories).

Only the objective depends on the weights and on the challenger: the
rows, bounds and integrality depend on the original class alone.  So a
pruning run builds one program per original class, once, and reweights
it for each challenger and each round.  Every solve after the class's
first starts from the class's last optimal root basis, which stays
primal feasible under any objective and carries the program's presolve
reduction (see ``solve_milp``), so presolve runs once per class.
Presolve removes every flow column a stump's split indicator
determines, so a stump program keeps little more than its threshold
indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .ensemble import (BinaryFeature, CellSignature, ContinuousFeature,
                       Ensemble, Leaf, Point, _check_weights, cell_center,
                       cells_of, leaves_of, predict_class, predict_scores)
from .errors import InputError, IterationLimitError, SolverFailureError
from .solver import (MilpProblem, MilpSolution, ProblemBuilder, SolveStatus,
                     SolverOptions, dump_lp, solve_milp)

DEFAULT_EPSILON = 1e-6
VIOLATION_TOL = 1e-8


@dataclass
class SeparationProgram:
    """One (challenger, original) subproblem plus its variable maps, and
    the leaf columns that carry the objective.  Only the objective
    depends on the weights and the challenger; the rows, bounds and
    integrality depend on the original class alone."""

    problem: MilpProblem
    challenger: int
    original: int
    epsilon: float
    flow: list[dict[int, int]]          # per tree: node id -> column
    threshold: dict[int, list[int]]     # continuous feature -> columns
    bit: dict[int, int]                 # binary feature -> column
    level: dict[int, list[int]]         # categorical feature -> columns
    leaf_cols: np.ndarray               # column of every leaf flow
    leaf_tree: np.ndarray               # its tree
    leaf_scores: np.ndarray             # its class scores, (leaves, C)

    def reweighted(self, weights: Sequence[float],
                   challenger: int) -> SeparationProgram:
        """This program's original class against ``challenger`` under
        the objective of ``weights``: a new problem that shares every
        array of this one except ``c``."""
        w = np.asarray(weights, dtype=float)
        gap = (self.leaf_scores[:, challenger]
               - self.leaf_scores[:, self.original])
        c = np.zeros(self.problem.num_vars)
        c[self.leaf_cols] = w[self.leaf_tree] * gap
        return replace(self, problem=replace(self.problem, c=c),
                       challenger=challenger)


@dataclass
class PairOutcome:
    challenger: int
    original: int
    status: SolveStatus
    objective: float | None
    point: Point | None
    cell: CellSignature | None
    nodes: int
    iterations: int
    rows: int                   # the pair's MIP
    cols: int
    solved_rows: int            # what the solver solved after presolve
    solved_cols: int


@dataclass
class SeparationResult:
    """All pair outcomes of one oracle round, plus the deduplicated
    union of separating points (empty union = certificate).

    ``tie_points``/``tie_cells`` collect the optima that landed inside
    the zero tolerance band: there the best achievable reweighted gap is
    a dead heat, so the deterministic tie-break — not the scores —
    decides the predicted class.  They are reported separately from the
    strict violations so a caller can cut them away (forcing a strict
    margin) without weakening the meaning of ``points``.
    """

    pairs: list[PairOutcome]
    points: list[Point] = field(default_factory=list)
    cells: list[CellSignature] = field(default_factory=list)
    tie_points: list[Point] = field(default_factory=list)
    tie_cells: list[CellSignature] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """No strictly positive violation (ties reported separately)."""
        return not self.cells

    @property
    def solves(self) -> int:
        return len(self.pairs)


def build_separation(ensemble: Ensemble, weights: Sequence[float],
                     challenger: int, original: int,
                     epsilon: float = DEFAULT_EPSILON) -> SeparationProgram:
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    C = ensemble.num_classes
    if not (0 <= challenger < C and 0 <= original < C
            and challenger != original):
        raise InputError(
            f"bad class pair ({challenger}, {original}) for {C} classes")
    alpha = np.asarray(ensemble.alpha)
    pb = ProblemBuilder(maximize=True)

    flow: list[dict[int, int]] = []
    leaf_cols: list[int] = []
    leaf_tree: list[int] = []
    leaf_scores: list[tuple[float, ...]] = []
    for m, tree in enumerate(ensemble.trees):
        cols: dict[int, int] = {}
        for v in sorted(tree.nodes):
            cols[v] = pb.add_var(f"z_{m}_{v}", lo=0.0, up=1.0)
            node = tree.nodes[v]
            if isinstance(node, Leaf):
                leaf_cols.append(cols[v])
                leaf_tree.append(m)
                leaf_scores.append(node.scores)
        flow.append(cols)

    threshold: dict[int, list[int]] = {}
    bit: dict[int, int] = {}
    level: dict[int, list[int]] = {}
    for j, kind in enumerate(ensemble.schema.features):
        if isinstance(kind, ContinuousFeature):
            threshold[j] = [pb.add_var(f"mu_{j}_{r}", lo=0.0, up=1.0,
                                       integer=True)
                            for r in range(len(kind.thresholds))]
        elif isinstance(kind, BinaryFeature):
            bit[j] = pb.add_var(f"b_{j}", lo=0.0, up=1.0, integer=True)
        else:
            level[j] = [pb.add_var(f"nu_{j}_{z}", lo=0.0, up=1.0,
                                   integer=True)
                        for z in range(kind.num_levels)]

    for m, tree in enumerate(ensemble.trees):
        cols = flow[m]
        pb.add_row([(cols[tree.root], 1.0)], "==", 1.0, name=f"root_{m}")
        for v in tree.internal_ids:
            node = tree.nodes[v]
            pb.add_row([(cols[node.left], 1.0), (cols[node.right], 1.0),
                        (cols[v], -1.0)], "==", 0.0, name=f"children_{m}_{v}")

    for other in range(C):
        if other == original:
            continue
        terms = []
        for m, tree in enumerate(ensemble.trees):
            if alpha[m] == 0.0:
                continue
            for v in tree.leaf_ids:
                s = tree.nodes[v].scores
                coef = alpha[m] * (s[original] - s[other])
                if coef != 0.0:
                    terms.append((flow[m][v], coef))
        pb.add_row(terms, ">=", epsilon, name=f"margin_{other}")

    for j, cols_mu in threshold.items():
        for r in range(len(cols_mu) - 1):
            pb.add_row([(cols_mu[r], 1.0), (cols_mu[r + 1], -1.0)], ">=", 0.0,
                       name=f"order_{j}_{r}")
    for j, cols_nu in level.items():
        pb.add_row([(col, 1.0) for col in cols_nu], "==", 1.0,
                   name=f"onehot_{j}")

    for m, tree in enumerate(ensemble.trees):
        cols = flow[m]
        for v in tree.internal_ids:
            node = tree.nodes[v]
            kind = ensemble.schema.features[node.feature]
            if isinstance(kind, ContinuousFeature):
                ind = threshold[node.feature][node.threshold_index]
            elif isinstance(kind, BinaryFeature):
                ind = bit[node.feature]
            else:
                ind = level[node.feature][node.category]
            # left branch excluded when the indicator is on, right when off
            pb.add_row([(cols[node.left], 1.0), (ind, 1.0)], "<=", 1.0,
                       name=f"left_{m}_{v}")
            pb.add_row([(cols[node.right], 1.0), (ind, -1.0)], "<=", 0.0,
                       name=f"right_{m}_{v}")

    program = SeparationProgram(
        problem=pb.build(), challenger=challenger, original=original,
        epsilon=epsilon, flow=flow, threshold=threshold, bit=bit, level=level,
        leaf_cols=np.array(leaf_cols, dtype=np.intp),
        leaf_tree=np.array(leaf_tree, dtype=np.intp),
        leaf_scores=np.array(leaf_scores, dtype=float).reshape(-1, C))
    return program.reweighted(weights, challenger)


def extract_point(ensemble: Ensemble, program: SeparationProgram,
                  solution: MilpSolution) -> tuple[Point, CellSignature]:
    """Cell signature from the indicator variables, then its center
    point.  The point is asserted to route every tree to exactly the
    unit-flow leaf; a mismatch means the solver returned an inconsistent
    assignment and is an internal failure, not user error."""
    x = solution.x
    sig: list[int] = []
    for j, kind in enumerate(ensemble.schema.features):
        if isinstance(kind, ContinuousFeature):
            sig.append(int(round(sum(x[col] for col in program.threshold[j]))))
        elif isinstance(kind, BinaryFeature):
            sig.append(int(round(x[program.bit[j]])))
        else:
            values = [x[col] for col in program.level[j]]
            sig.append(int(np.argmax(values)))
    cell = tuple(sig)
    point = cell_center(ensemble.schema, cell)
    leaves = leaves_of(ensemble, cells_of(ensemble.schema, [point]))[0]
    for m, leaf in enumerate(ensemble.flat.node_id[leaves]):
        if x[program.flow[m][leaf]] < 0.5:
            raise SolverFailureError(
                f"extracted point routes tree {m} to leaf {leaf} but the "
                "separation solution puts no flow there (tolerance bug)")
    return point, cell


def separate(ensemble: Ensemble, weights: Sequence[float],
             epsilon: float = DEFAULT_EPSILON,
             violation_tol: float = VIOLATION_TOL,
             options: SolverOptions | None = None,
             solve: Callable[..., MilpSolution] = solve_milp,
             dump_dir: Union[str, Path, None] = None,
             programs: dict | None = None) -> SeparationResult:
    """Solve every ordered class pair; collect each strictly positive
    optimum's point, deduplicated by cell.

    ``programs`` carries one program per original class and the class's
    last optimal root basis from pair to pair and from one round of a
    pruning run to the next (same ensemble and epsilon; the caller
    passes one dict, empty at first, to every round and drops it after
    the run): a class found there is reweighted for each challenger, not
    rebuilt, and ``solve`` gets that basis as ``start=``.  Without it,
    each class's program is still built once per call, but every pair is
    solved cold.

    Every returned point is re-checked by direct evaluation: the
    original weights must predict the pair's original class at it, and
    the reweighting must strictly prefer the challenger over it.

    A pair optimum inside ``[-violation_tol, violation_tol]`` means the
    reweighting's best cell for that pair is an exact score tie; the
    cell is extracted into ``tie_cells`` (never into ``points``) so the
    caller can decide whether a tie-break flip matters.
    """
    w = _check_weights(ensemble, weights)
    pairs: list[PairOutcome] = []
    points: list[Point] = []
    cells: list[CellSignature] = []
    tie_points: list[Point] = []
    tie_cells: list[CellSignature] = []
    seen: set[CellSignature] = set()
    for original in range(ensemble.num_classes):
        program, start = (programs or {}).get(original, (None, None))
        for challenger in range(ensemble.num_classes):
            if challenger == original:
                continue
            if program is None:
                program = build_separation(ensemble, w, challenger, original,
                                           epsilon)
            else:
                program = program.reweighted(w, challenger)
            if dump_dir is not None:
                dump_lp(program.problem,
                        Path(dump_dir) / f"sep_y{original}_c{challenger}.lp",
                        name=f"separation y={original} c={challenger}")
            if start is None:
                sol = solve(program.problem, options)
            else:
                sol = solve(program.problem, options, start=start)
            if programs is not None:
                start = sol.root_basis
                programs[original] = (program, start)
            if sol.status == SolveStatus.ITERATION_LIMIT:
                raise IterationLimitError(
                    f"separation for pair (challenger={challenger}, "
                    f"original={original}) hit the solver's node limit")
            if sol.status == SolveStatus.UNBOUNDED:
                raise SolverFailureError(
                    "separation subproblem is bounded by construction; "
                    f"solver says unbounded for pair ({challenger}, {original})")
            point = cell = None
            objective = None
            if sol.status == SolveStatus.OPTIMAL:
                objective = float(sol.objective)
                if objective > violation_tol:
                    point, cell = extract_point(ensemble, program, sol)
                    _check_separating_point(ensemble, w, challenger, original,
                                            point)
                    if cell not in seen:
                        seen.add(cell)
                        points.append(point)
                        cells.append(cell)
                elif objective >= -violation_tol:
                    point, cell = extract_point(ensemble, program, sol)
                    _check_original_class(ensemble, challenger, original,
                                          point)
                    if cell not in seen:
                        seen.add(cell)
                        tie_points.append(point)
                        tie_cells.append(cell)
            pairs.append(PairOutcome(
                challenger=challenger, original=original, status=sol.status,
                objective=objective, point=point, cell=cell, nodes=sol.nodes,
                iterations=sol.iterations, rows=program.problem.num_rows,
                cols=program.problem.num_vars, solved_rows=sol.solved_rows,
                solved_cols=sol.solved_cols))
    return SeparationResult(pairs=pairs, points=points, cells=cells,
                            tie_points=tie_points, tie_cells=tie_cells)


def _check_original_class(ensemble: Ensemble, challenger: int, original: int,
                          point: Point) -> None:
    if predict_class(ensemble, ensemble.alpha, point) != original:
        raise SolverFailureError(
            f"separation point for pair ({challenger}, {original}) is not "
            f"predicted {original} by the original weights")


def _check_separating_point(ensemble: Ensemble, w: np.ndarray, challenger: int,
                            original: int, point: Point) -> None:
    _check_original_class(ensemble, challenger, original, point)
    scores = predict_scores(ensemble, w, point)
    if not scores[challenger] - scores[original] > 0.0:
        raise SolverFailureError(
            f"separation point for pair ({challenger}, {original}) has no "
            "positive reweighted gap on direct evaluation")
