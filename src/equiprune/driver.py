"""The certified pruning loop.

Alternate two solvers until they agree: prune on the current working
set of points, then ask the separation oracle for a point anywhere in
feature space where the reweighting breaks the original prediction.
Each counterexample joins the working set and the loop repeats.  Tie
cells — where the reweighted scores dead-heat and only the tie-break
keeps the prediction in place — are cut away the same way, so the loop
converges only when every class pair loses strictly everywhere.  That
certifies agreement with the original prediction on every cell whose
winning margin is at least epsilon, independent of tie-breaking.
Termination is guaranteed because every round adds at least one
previously unseen cell and cells are finite.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .ensemble import CellSignature, Ensemble, predict_classes_batch
from .errors import InputError, IterationLimitError, PruneCycleError
from .oracle import DEFAULT_EPSILON, VIOLATION_TOL, separate
from .pruner import PruneSet, build_margins, prune_l0, prune_l1
from .pruner import compute_big_w  # noqa: F401  patched by perfbench/spans.py
from .solver import SolverOptions

log = logging.getLogger(__name__)


@dataclass
class PruneOptions:
    norm: str = "l0"                   # "l0" (exact count) or "l1" (LP)
    epsilon: float = DEFAULT_EPSILON   # oracle margin precision
    violation_tol: float = VIOLATION_TOL
    max_iterations: int = 1000
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.norm not in ("l0", "l1"):
            raise InputError(f"norm must be 'l0' or 'l1', got {self.norm!r}")
        if self.epsilon <= 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be at least 1")


class PairCounts(NamedTuple):
    """Solver work on one oracle pair in one round."""

    challenger: int
    original: int
    nodes: int                       # branch-and-bound nodes
    pivots: int                      # simplex pivots
    rows: int                        # the pair's MIP
    cols: int
    solved_rows: int                 # what the solver solved after presolve
    solved_cols: int


@dataclass
class IterationRecord:
    index: int                       # 1-based
    working_set_size: int            # |S| the pruner saw
    prune_objective: float
    pair_objectives: list[tuple[int, int, float | None]]  # (challenger, original, obj)
    pair_counts: list[PairCounts]
    added_cells: list[CellSignature]
    prune_seconds: float
    oracle_seconds: float


@dataclass
class PruneOutcome:
    weights: np.ndarray
    support: tuple[int, ...]
    iterations: int
    n_oracle: int                    # separation MIPs solved in total
    history: list[IterationRecord]
    wall_time: dict[str, float]      # seconds per phase: prune/oracle/total

    @property
    def num_kept(self) -> int:
        return len(self.support)


def certified_prune(ensemble: Ensemble, initial_points: Sequence[Sequence[float]],
                    options: PruneOptions | None = None) -> PruneOutcome:
    """Run the prune/separate loop to a certificate.

    ``initial_points`` seeds the working set (typically the training
    rows) and must be nonempty.  Raises on pruner infeasibility, on a
    tied original prediction, if the oracle ever returns a cell already
    in the working set (impossible under correct solves, so it signals
    a solver bug rather than looping forever), and when
    ``max_iterations`` runs out.
    """
    opts = options or PruneOptions()
    initial_points = list(initial_points)
    if not initial_points:
        raise InputError("at least one initial point is required")
    working = PruneSet(ensemble)
    working.add_points(initial_points)

    t_start = time.perf_counter()
    prune_total = 0.0
    oracle_total = 0.0
    history: list[IterationRecord] = []
    n_oracle = 0
    programs: dict = {}     # oracle program and root basis per class, this run
    prune = prune_l0 if opts.norm == "l0" else prune_l1

    for index in range(1, opts.max_iterations + 1):
        t0 = time.perf_counter()
        result = prune(ensemble, working, opts.solver,
                       margins=build_margins(ensemble, working))
        t1 = time.perf_counter()
        separation = separate(ensemble, result.weights, epsilon=opts.epsilon,
                              violation_tol=opts.violation_tol,
                              options=opts.solver, programs=programs)
        t2 = time.perf_counter()
        prune_total += t1 - t0
        oracle_total += t2 - t1
        n_oracle += separation.solves

        new_cells = list(separation.cells) + list(separation.tie_cells)
        record = IterationRecord(
            index=index, working_set_size=len(working),
            prune_objective=result.objective,
            pair_objectives=[(p.challenger, p.original, p.objective)
                             for p in separation.pairs],
            pair_counts=[PairCounts(p.challenger, p.original, p.nodes,
                                    p.iterations, p.rows, p.cols,
                                    p.solved_rows, p.solved_cols)
                         for p in separation.pairs],
            added_cells=new_cells,
            prune_seconds=t1 - t0, oracle_seconds=t2 - t1)
        history.append(record)
        log.info("iteration %d: |S|=%d objective=%.6g kept=%d new_cells=%d "
                 "(ties %d)", index, record.working_set_size, result.objective,
                 len(result.support), len(new_cells), len(separation.tie_cells))

        if not new_cells:
            total = time.perf_counter() - t_start
            return PruneOutcome(weights=result.weights, support=result.support,
                                iterations=index, n_oracle=n_oracle,
                                history=history,
                                wall_time={"prune": prune_total,
                                           "oracle": oracle_total,
                                           "total": total})
        for cell in new_cells:
            if cell in working:
                raise PruneCycleError(
                    f"oracle returned cell {cell} which is already in the "
                    "working set; its constraints should have excluded it "
                    "(solver tolerance bug)")
            working.add_cell(cell)

    raise IterationLimitError(
        f"no certificate after {opts.max_iterations} iterations")


def fidelity(ensemble: Ensemble, weights: Sequence[float],
             points: Sequence[Sequence[float]]) -> float:
    """Fraction of points where the reweighting predicts the same class
    as the original weights."""
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        raise InputError("fidelity needs at least one point")
    same = (predict_classes_batch(ensemble, weights, X)
            == predict_classes_batch(ensemble, ensemble.alpha, X))
    return float(np.mean(same))


def accuracy(ensemble: Ensemble, weights: Sequence[float],
             points: Sequence[Sequence[float]],
             labels: Sequence[int]) -> float:
    """Fraction of points whose predicted class matches the given label."""
    X = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    if X.size == 0:
        raise InputError("accuracy needs at least one point")
    if y.shape[0] != X.shape[0]:
        raise InputError(f"{X.shape[0]} points but {y.shape[0]} labels")
    if np.any(y < 0) or np.any(y >= ensemble.num_classes):
        raise InputError("label out of range")
    return float(np.mean(predict_classes_batch(ensemble, weights, X) == y))
