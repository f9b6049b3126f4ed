"""Separation oracle: search the whole feature space for a cell where
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
         the objective itself >= -VIOLATION_TOL      (the ``floor`` row)

A strictly positive optimum exhibits a cell where the original
ensemble predicts y with margin >= eps while the reweighting prefers c;
the oracle returns cells, and ``cell_center`` gives a point of one.  If
no pair has a positive optimum, the reweighting provably agrees with
the original prediction on every cell whose winning margin is at least
eps.  An optimum of exactly zero is a third verdict: the reweighted
scores tie on the maximizing cell, where the class is decided by the
tie-break alone; such cells are reported on a separate channel so the
caller can force a strict margin there instead of trusting the
tie-break to agree.  Below -VIOLATION_TOL only the verdict matters, not
the optimum, so each pair's problem carries one more row, ``floor``:
the reweighted gap is at least -VIOLATION_TOL.  A pair with no cell
there is infeasible, which branch and bound usually proves at the root
instead of closing the gap between a root bound near -epsilon and a
negative integer optimum.

This is the flow formulation of Parmentier & Vidal (ICML 2021) without
their per-depth left-turn totals λ.  Flows stay continuous: once μ/ν
and the binary indicators take 0/1 values, the left/right rows force a
single unit path through each tree, so λ adds nothing to an integral
solution, and the benchmark shows the smaller program solves faster.
The indicator variables are declared integral so every solution pins
down a complete cell, including thresholds no active flow touches.  Pair
subproblems are independent (solved here in a fixed y-major, c-minor
order for reproducible histories).

The program is built from the ensemble's flat arrays (``FlatTrees``),
already reduced: a root carries flow 1 and its children 1 - u and u,
where u is the indicator of the root's split, so they get no columns.
Column i is the flow of the i-th node at depth 2 or more, in flat order
(named ``z_{tree}_{node id}``).  Then comes one indicator block per
feature, in feature order: one column per threshold of a continuous
feature (``mu_{j}_{r}``, on iff the cell lies above threshold r), one
for a binary feature (``b_{j}``, the bit) and one per level of a
categorical feature (``nu_{j}_{z}``, one-hot).  Last comes ``one``, an
integer column fixed at 1 that carries every constant.
``SeparationProgram.flows`` writes each flat node's flow as a row over
the columns: ``one`` for a root, ``one - u`` and ``u`` for its
children, its own column for a deeper node.  A split on feature j with
cut k reads indicator ``blocks[j][k]``: binary splits are cut 0 on the
bit.  An ordered block (continuous or binary) spells a cell index k as
k leading ones; a categorical one as a one at k.  Rows run
``children_`` per split below a root, then ``margin_``, ``order_``,
``onehot_``, and last a ``left_``/``right_`` pair per split below a
root.  A stump's program is its indicators, ``one``, the margin rows
and the order rows.  A pair's problem appends ``floor`` last.

Only the objective and the floor depend on the weights and on the
challenger: every other row, the bounds and integrality depend on the
original class alone.  So the oracle's unit is the class program,
built once per pruning run with a zero objective and priced for each
challenger and each round (``SeparationProgram.priced``); ``separate``
says where each solve starts.  A no-good row that ``separate`` appends
to a class's program, to cut off a cell whose original margin falls
short of epsilon, goes before the floor.

A pruning run has one ``Oracle``, which holds the run's ensemble, its
epsilon and its class programs.  A round that is not the last needs
only one counterexample, so the oracle also scores a fixed sample of
cells, drawn once per run, under each round's weights by ``separate``'s
verdict rule (``Oracle.refute``).  The sample only proposes
counterexamples: a run solves the MIPs in every round the sample
cannot refute, so only the MIPs certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .ensemble import CellSignature, Ensemble, _check_weights, leaves_of
from .errors import InputError, IterationLimitError, SolverFailureError
from .solver import (Basis, MilpProblem, Solution, SolveStatus,
                     _check_size, _check_tol, dump_lp, solve_milp)

DEFAULT_EPSILON = 1e-6
# the one verdict tolerance: a pair optimum or sampled gap above it is a
# violation, one within it of zero a tie
VIOLATION_TOL = 1e-8
# The screen's sample: this many cells, drawn uniformly over each
# feature's cell indices from this seed, once per pruning run.  The
# measured instances span at most about 100 cells, so a sample this size
# sees most of them; on larger spaces it only refutes fewer rounds.
SCREEN_CELLS = 256
SCREEN_SEED = 0


def _check_epsilon(epsilon: float) -> None:
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise InputError(f"epsilon must be finite and positive, got {epsilon}")


@dataclass
class SeparationProgram:
    """One original class's subproblem, with a zero objective, plus its
    column layout: ``flows`` writes each flat node's flow as a row over
    the columns, and ``blocks[j]`` holds feature j's indicator columns.
    ``priced`` gives a pair's problem; ``start`` is the optimal root
    basis of the program's last solve."""

    problem: MilpProblem
    ensemble: Ensemble                  # the one it was built from
    original: int
    epsilon: float
    blocks: list[np.ndarray]            # per feature: its indicator columns
    categorical: list[bool]             # per feature: one-hot levels
    flows: np.ndarray                   # per flat node: its flow, a row
                                        # over the columns
    leaves: np.ndarray                  # flat index of every leaf
    leaf_tree: np.ndarray               # its tree
    leaf_scores: np.ndarray             # its class scores, (leaves, C)
    margin: np.ndarray                  # its margin rows' coefficients,
                                        # (leaves, C - 1)
    start: Basis | None = None

    def priced(self, weights: Sequence[float],
               challenger: int) -> MilpProblem:
        """The pair (``challenger``, this program's original class) under
        the objective c of ``weights``, with one last row, ``floor``:
        c'x >= -VIOLATION_TOL.  No cell below it can be filed, so a pair
        with no cell at or above it is INFEASIBLE, and one with such a
        cell keeps its optimum."""
        w = np.asarray(weights, dtype=float)
        gap = (self.leaf_scores[:, challenger]
               - self.leaf_scores[:, self.original])
        c = (w[self.leaf_tree] * gap) @ self.flows[self.leaves]
        return replace(_appended(self.problem, c, 1, -VIOLATION_TOL,
                                 "floor"), c=c)

    def cut_off(self, cell: CellSignature) -> SeparationProgram:
        """This program with one row appended that every cell but
        ``cell`` meets: some indicator must differ from its value there,
        sum_{off} x - sum_{on} x + |on| one >= 1.  The constant sits on
        ``one``, the last column, so the right-hand side stays 1."""
        row = np.zeros(self.problem.num_vars)
        for cols, categorical, k in zip(self.blocks, self.categorical, cell):
            if categorical:
                row[cols] = 1.0
                row[cols[k]] = -1.0
            else:
                row[cols] = np.where(np.arange(len(cols)) < k, -1.0, 1.0)
        row[-1] = np.count_nonzero(row < 0)
        return replace(self, problem=_appended(
            self.problem, row, 1, 1.0, f"cut_{'_'.join(map(str, cell))}"))


def _appended(problem: MilpProblem, row: np.ndarray, sense: int, rhs: float,
              name: str) -> MilpProblem:
    """``problem`` with one row appended (sense coded as in MilpProblem)."""
    return replace(problem, A=np.vstack([problem.A, row]),
                   senses=np.append(problem.senses, np.int8(sense)),
                   b=np.append(problem.b, rhs),
                   row_names=problem.row_names + [name])


@dataclass
class PairOutcome:
    """One pair's MIP.  ``objective`` is the solver's optimum, None when
    the pair is INFEASIBLE: no cell reaches the ``floor`` row
    (``SeparationProgram.priced``).  An optimum below -VIOLATION_TOL,
    met only within the solver's tolerances, is not rechecked against
    epsilon: the MIP's best cell may lie outside the margin rows' scope.
    Every verdict stays right, as no cell is taken from it."""

    challenger: int
    original: int
    status: SolveStatus
    objective: float | None
    cell: CellSignature | None
    nodes: int
    iterations: int
    rows: int                   # the pair's MIP
    cols: int
    cuts: int = 0               # cells cut off and re-solved (one MIP each)


@dataclass
class SeparationResult:
    """All pair outcomes of one oracle round, plus the deduplicated
    union of separating cells (empty union = certificate).

    ``tie_cells`` collects the optima that landed inside the zero
    tolerance band: there the best achievable reweighted gap is a dead
    heat, so the deterministic tie-break — not the scores — decides the
    predicted class.  They are reported separately from the strict
    violations so a caller can cut them away (forcing a strict margin)
    without weakening the meaning of ``cells``.
    """

    pairs: list[PairOutcome]
    cells: list[CellSignature] = field(default_factory=list)
    tie_cells: list[CellSignature] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """No strictly positive violation (ties reported separately)."""
        return not self.cells

    def add(self, cell: CellSignature, gap: float) -> bool:
        """File one pair's best cell by its reweighted gap: a violation
        above ``VIOLATION_TOL``, a tie within it, nothing below.  A cell
        already filed for an earlier pair stays where it is.  Returns
        whether the gap is a violation."""
        if (gap >= -VIOLATION_TOL and cell not in self.cells
                and cell not in self.tie_cells):
            filed = self.cells if gap > VIOLATION_TOL else self.tie_cells
            filed.append(cell)
        return gap > VIOLATION_TOL


def build_separation(ensemble: Ensemble, original: int,
                     epsilon: float = DEFAULT_EPSILON) -> SeparationProgram:
    _check_epsilon(epsilon)
    C = ensemble.num_classes
    if not 0 <= original < C:
        raise InputError(f"bad original class {original} for {C} classes")
    flat = ensemble.flat
    nodes = np.arange(flat.left.size)
    split = flat.left != nodes
    leaves = np.flatnonzero(~split)
    roots = flat.roots[split[flat.roots]]       # the roots that split
    is_root = np.zeros(nodes.size, dtype=bool)
    is_root[flat.roots] = True
    below = np.flatnonzero(split & ~is_root)    # the splits below a root
    # a root and its children take their flows from ``one`` and the
    # root's indicator; every deeper node has a flow column
    top = is_root.copy()
    top[flat.left[roots]] = top[flat.right[roots]] = True
    deep = np.flatnonzero(~top)

    tree, node_id = flat.tree.tolist(), flat.node_id.tolist()
    var_names = [f"z_{tree[i]}_{node_id[i]}" for i in deep.tolist()]
    blocks: list[np.ndarray] = []
    categorical: list[bool] = []
    for j, kind in enumerate(ensemble.schema.features):
        # one indicator per threshold, per bit (cut 0) or per level
        categorical.append(kind.kind == "categorical")
        size = kind.num_cells - (not categorical[-1])
        blocks.append(np.arange(len(var_names), len(var_names) + size))
        if kind.kind == "binary":
            var_names.append(f"b_{j}")
        else:
            prefix = "nu" if categorical[-1] else "mu"
            var_names += [f"{prefix}_{j}_{k}" for k in range(size)]
    one = len(var_names)
    var_names.append("one")
    n = len(var_names)
    others = [k for k in range(C) if k != original]
    orders = [(j, cols) for j, cols in enumerate(blocks)
              if not categorical[j] and cols.size > 1]
    _check_size(3 * below.size + len(others) + sum(categorical)
                + sum(cols.size - 1 for _, cols in orders), n)

    # each split's indicator: feature j's first column plus the cut
    first = np.array([cols[0] if cols.size else 0 for cols in blocks])
    ind = first[flat.feature] + flat.cut
    flows = np.zeros((nodes.size, n))
    flows[deep, np.arange(deep.size)] = 1.0
    flows[flat.roots, one] = 1.0
    flows[flat.left[roots], one] = 1.0
    flows[flat.left[roots], ind[roots]] = -1.0
    flows[flat.right[roots], ind[roots]] = 1.0

    # rows as blocks of (coefficients, sense, right-hand side, names),
    # the sense coded as in MilpProblem: -1 '<=', 0 '==', +1 '>='
    left, right = flat.left[below], flat.right[below]
    rows = [(flows[left] + flows[right] - flows[below], 0, 0.0,
             [f"children_{tree[i]}_{node_id[i]}" for i in below.tolist()])]
    alpha = np.asarray(ensemble.alpha)[flat.tree[leaves]]
    scores = flat.scores[leaves]
    coef = alpha[:, None] * (scores[:, [original]] - scores[:, others])
    rows.append((coef.T @ flows[leaves], 1, epsilon,
                 [f"margin_{k}" for k in others]))
    for j, cols in orders:
        order = np.zeros((cols.size - 1, n))
        k = np.arange(cols.size - 1)
        order[k, cols[:-1]], order[k, cols[1:]] = 1.0, -1.0
        rows.append((order, 1, 0.0, [f"order_{j}_{r}" for r in k.tolist()]))
    for j, cols in enumerate(blocks):
        if categorical[j]:
            onehot = np.zeros((1, n))
            onehot[0, cols] = 1.0
            rows.append((onehot, 0, 1.0, [f"onehot_{j}"]))
    # left branch excluded when the indicator is on, right when off
    excluded = np.stack([flows[left], flows[right]], axis=1)
    excluded[np.arange(below.size), :, ind[below]] += [1.0, -1.0]
    rows.append((excluded.reshape(-1, n), -1, np.tile([1.0, 0.0], below.size),
                 [f"{side}_{tree[i]}_{node_id[i]}" for i in below.tolist()
                  for side in ("left", "right")]))

    A = np.vstack([block for block, _, _, _ in rows])
    lower = np.zeros(n)
    lower[one] = 1.0
    return SeparationProgram(
        problem=MilpProblem(
            c=np.zeros(n), A=A,
            senses=np.concatenate([np.full(len(names), sense, dtype=np.int8)
                                   for _, sense, _, names in rows]),
            b=np.concatenate([np.broadcast_to(rhs, len(names))
                              for _, _, rhs, names in rows]).astype(float),
            lower=lower, upper=np.ones(n), integer=np.arange(n) >= deep.size,
            maximize=True, var_names=var_names,
            row_names=[name for *_, names in rows for name in names]),
        ensemble=ensemble, original=original, epsilon=epsilon, blocks=blocks,
        categorical=categorical, flows=flows, leaves=leaves,
        leaf_tree=flat.tree[leaves], leaf_scores=scores, margin=coef)


def extract_cell(program: SeparationProgram,
                 solution: Solution) -> tuple[CellSignature, np.ndarray]:
    """Cell signature from the indicator variables, and the per-tree
    score rows (M, C) of the leaves it reaches.  The cell is asserted to
    route every tree to exactly the unit-flow leaf; a mismatch means the
    solver returned an inconsistent assignment and is an internal
    failure, not user error."""
    ensemble, x = program.ensemble, solution.x
    cell = tuple(int(np.argmax(x[cols])) if categorical
                 else int(round(x[cols].sum()))
                 for cols, categorical in zip(program.blocks,
                                              program.categorical))
    leaves = leaves_of(ensemble, [cell])[0]
    flow = program.flows[leaves] @ x
    for m, leaf in enumerate(leaves):
        if flow[m] < 0.5:
            raise SolverFailureError(
                f"extracted cell routes tree {m} to leaf "
                f"{ensemble.flat.node_id[leaf]} but the separation solution "
                "puts no flow there (tolerance bug)")
    return cell, ensemble.flat.scores[leaves]


def separate(oracle: Oracle, weights: Sequence[float],
             solve: Callable[..., Solution] = solve_milp,
             dump_dir: Union[str, Path, None] = None) -> SeparationResult:
    """Solve every ordered class pair of ``oracle``'s ensemble at its
    epsilon; collect each strictly positive optimum's cell, deduplicated.

    ``oracle.programs`` maps each original class to its program, built
    at the class's first pair and kept, which carries its last root
    basis, also one that proved its pair empty, from pair to pair and
    from round to round: ``solve`` gets that basis as ``start=``.  A
    program that holds none gets the root basis of the pair solved just
    before it in this call, whose program has the same columns and,
    before any cut, as many rows; so only a fresh oracle's first pair
    starts from the slack basis.  The new floor and objective may leave
    a start neither primal nor dual feasible; ``solve_milp`` finishes
    from it under shifted costs.

    Every returned cell is re-checked by direct evaluation: the
    original weights must predict the pair's original class on it by a
    margin of at least epsilon, and the reweighting must strictly
    prefer the challenger over it.  A cell that misses the margin by
    no more than the solver's tolerances explain (``_meets_margin``)
    met the margin rows only through them; a no-good row on its
    indicators is appended to the class's program
    (``SeparationProgram.cut_off``), which the oracle then keeps, and
    the pair is re-solved from the slack basis.  A larger miss raises
    ``SolverFailureError``.

    A pair optimum inside ``[-VIOLATION_TOL, VIOLATION_TOL]`` means the
    reweighting's best cell for that pair is an exact score tie; the
    cell is extracted into ``tie_cells`` (never into ``cells``) so the
    caller can decide whether a tie-break flip matters.

    With ``dump_dir``, each pair's problem is written there in LP format
    as ``sep_y{y}_c{c}.lp``, and the problem of its k-th re-solve after a
    cut as ``sep_y{y}_c{c}_cut{k}.lp``.
    """
    ensemble, programs = oracle.ensemble, oracle.programs
    w = _check_weights(ensemble, weights)
    result = SeparationResult(pairs=[])
    previous = None             # the root basis of the last solve here
    for original in range(ensemble.num_classes):
        program = programs[original] = (
            programs.get(original)
            or build_separation(ensemble, original, oracle.epsilon))
        for challenger in range(ensemble.num_classes):
            if challenger == original:
                continue
            nodes = iterations = cuts = 0
            cell = objective = None
            while True:
                problem = program.priced(w, challenger)
                if dump_dir is not None:
                    stem = (f"sep_y{original}_c{challenger}"
                            + (f"_cut{cuts}" if cuts else ""))
                    dump_lp(problem, Path(dump_dir) / f"{stem}.lp",
                            name=f"separation y={original} c={challenger}")
                start = (program.start if program.start is not None
                         else previous)
                sol = solve(problem, start=start)
                nodes += sol.nodes
                iterations += sol.iterations
                program.start = previous = sol.basis
                if sol.status == SolveStatus.ITERATION_LIMIT:
                    raise IterationLimitError(
                        f"separation for pair (challenger={challenger}, "
                        f"original={original}) hit the solver's node limit")
                if sol.status == SolveStatus.UNBOUNDED:
                    raise SolverFailureError(
                        "separation subproblem is bounded by construction; "
                        "solver says unbounded for pair "
                        f"({challenger}, {original})")
                if (sol.status != SolveStatus.OPTIMAL
                        or sol.objective < -VIOLATION_TOL):
                    break
                cell, scores = extract_cell(program, sol)
                if _meets_margin(program, scores):
                    break
                # met only through values inside the solver's tolerances:
                # the cell lies outside the margin rows' scope for every
                # challenger, so it leaves the class's program for good
                program = programs[original] = program.cut_off(cell)
                cuts += 1
                cell = None
            if sol.status == SolveStatus.OPTIMAL:
                objective = float(sol.objective)
            if cell is not None and result.add(cell, objective):
                reweighted = w @ scores
                if not reweighted[challenger] - reweighted[original] > 0.0:
                    raise SolverFailureError(
                        f"separation cell for pair ({challenger}, "
                        f"{original}) has no positive reweighted gap on "
                        "direct evaluation")
            result.pairs.append(PairOutcome(
                challenger=challenger, original=original, status=sol.status,
                objective=objective, cell=cell, nodes=nodes,
                iterations=iterations, rows=problem.num_rows,
                cols=problem.num_vars, cuts=cuts))
    return result


class Oracle:
    """One pruning run's oracle: its ``ensemble``, its ``epsilon`` and
    ``programs``, each original class's program as ``separate`` built
    and kept it.  ``cells`` is a fixed sample of cells whose original
    winning margin is at least epsilon, the margin rows' scope, each
    with its per-tree scores and original class; ``refute`` proposes
    counterexamples from it, and an empty result certifies nothing."""

    def __init__(self, ensemble: Ensemble, epsilon: float = DEFAULT_EPSILON):
        _check_epsilon(epsilon)
        rng = np.random.default_rng(SCREEN_SEED)
        drawn = np.zeros((SCREEN_CELLS, ensemble.schema.num_features),
                         dtype=np.int64)
        for j, kind in enumerate(ensemble.schema.features):
            drawn[:, j] = rng.integers(0, kind.num_cells, SCREEN_CELLS)
        # each distinct cell once, in the order drawn: small spaces repeat
        # most draws, and a repeat never changes which cell wins a pair
        cells = np.array(list(dict.fromkeys(map(tuple, drawn.tolist()))),
                         dtype=np.int64)
        scores = ensemble.flat.scores[leaves_of(ensemble, cells)]  # (n, M, C)
        original = np.asarray(ensemble.alpha) @ scores
        ranked = np.sort(original, axis=1)
        keep = ranked[:, -1] - ranked[:, -2] >= epsilon
        self.ensemble = ensemble
        self.epsilon = epsilon
        self.programs: dict[int, SeparationProgram] = {}
        self.cells = cells[keep]
        self.scores = scores[keep]
        self.labels = np.argmax(original[keep], axis=1)

    def refute(self, weights: Sequence[float]) -> SeparationResult:
        """For every ordered pair (challenger c, original y), the sampled
        class-y cell with the largest reweighted gap score_c - score_y,
        judged as ``separate`` judges a pair optimum: a violation above
        ``VIOLATION_TOL``, a tie within it.  Deduplicated by cell, with
        ``pairs=[]``."""
        w = _check_weights(self.ensemble, weights)
        scores = w @ self.scores
        result = SeparationResult(pairs=[])
        for original in range(self.ensemble.num_classes):
            rows = np.flatnonzero(self.labels == original)
            if rows.size == 0:
                continue
            for challenger in range(self.ensemble.num_classes):
                if challenger == original:
                    continue
                gap = scores[rows, challenger] - scores[rows, original]
                i = int(np.argmax(gap))
                cell = tuple(int(k) for k in self.cells[rows[i]])
                result.add(cell, gap[i])
        return result


def _meets_margin(program: SeparationProgram, scores: np.ndarray) -> bool:
    """Whether the original weights predict ``program.original`` by at
    least ``program.epsilon`` over every other class on a cell whose
    per-tree score rows are ``scores``.
    A solution the solver returns meets each margin row a'z >= epsilon
    within its check tolerance t (``solver._check_tol``), with every
    value about t from where the cell puts it, so the cell's margin
    can fall short of epsilon by about t (1 + ||a||_1); a miss beyond
    that is a solver fault and raises ``SolverFailureError``."""
    y = program.original
    scores = np.asarray(program.ensemble.alpha) @ scores
    shortfall = program.epsilon - (scores[y] - np.delete(scores, y))
    if shortfall.max() <= 0.0:
        return True
    slack = (_check_tol(program.problem.b)
             * (1.0 + np.abs(program.margin).sum(axis=0)))
    if np.any(shortfall > slack):
        raise SolverFailureError(
            f"separation cell for class {y} misses the original margin "
            f"{program.epsilon:.3g} by up to {shortfall.max():.3g}, beyond "
            "what the solver's tolerances explain")
    return False

