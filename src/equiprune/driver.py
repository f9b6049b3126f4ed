"""The certified pruning loop.

Alternate two solvers until they agree: prune on the current working
set of cells, then ask the separation oracle for a cell anywhere in
feature space where the reweighting breaks the original prediction.
Each counterexample cell joins the working set and the loop repeats.  A
run builds one ``oracle.Oracle`` from its ensemble and epsilon, which
keeps the class programs from round to round.  Every round first
scores the oracle's fixed sample of cells (``Oracle.refute``); the
oracle's MIPs run only in a round the sample cannot refute, so a run
still ends only on a round whose MIPs found nothing.  Tie
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
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .ensemble import (CellSignature, Ensemble, _integer,
                       predict_classes_batch)
from .errors import InputError, IterationLimitError, PruneCycleError
from .oracle import (DEFAULT_EPSILON, VIOLATION_TOL, Oracle, PairOutcome,
                     _check_epsilon, separate)
from .pruner import PruneResult, PruneSet, build_margins, prune_l0, prune_l1
from .pruner import compute_big_w  # noqa: F401  patched by perfbench/spans.py

log = logging.getLogger(__name__)


@dataclass
class PruneOptions:
    norm: str = "l0"                   # "l0" (exact count) or "l1" (LP)
    epsilon: float = DEFAULT_EPSILON   # oracle margin precision
    max_iterations: int = 1000         # rounds, screened ones included
    # the oracle's fixed verdict tolerance, read by the benchmark
    violation_tol: ClassVar[float] = VIOLATION_TOL

    def __post_init__(self):
        if self.norm not in ("l0", "l1"):
            raise InputError(f"norm must be 'l0' or 'l1', got {self.norm!r}")
        _check_epsilon(self.epsilon)
        if _integer(self.max_iterations, "max_iterations", InputError) < 1:
            raise InputError("max_iterations must be at least 1")


@dataclass
class IterationRecord:
    """One round: the pruner's result and the oracle's pair outcomes as
    they returned them.  A screened round's cells come from the screen
    and it solves no MIP, so ``pairs`` is empty; every other round
    solves all C(C-1) pair MIPs."""

    index: int                       # 1-based
    working_set_size: int            # |S| the pruner saw
    prune: PruneResult
    pairs: list[PairOutcome]
    added_cells: list[CellSignature]
    prune_seconds: float
    oracle_seconds: float            # the screen and any MIPs

    @property
    def screened(self) -> bool:
        """The screen refuted this round's weights; no MIP ran."""
        return not self.pairs


@dataclass
class PruneOutcome:
    """The certified weights and how the run got there.  The screen only
    proposes counterexamples; the last round always solved every pair
    MIP and found nothing, which is the certificate."""

    weights: np.ndarray
    support: tuple[int, ...]
    history: list[IterationRecord]
    wall_time: dict[str, float]      # seconds per phase: prune/oracle/total;
                                     # oracle includes the screen

    @property
    def num_kept(self) -> int:
        return len(self.support)

    @property
    def iterations(self) -> int:     # rounds, screened ones included
        return len(self.history)

    @property
    def n_oracle(self) -> int:       # separation MIPs, re-solves included
        return sum(1 + p.cuts for r in self.history for p in r.pairs)


def certified_prune(ensemble: Ensemble, initial_points: Sequence[Sequence[float]],
                    options: PruneOptions | None = None) -> PruneOutcome:
    """Run the prune/separate loop to a certificate.

    ``initial_points`` seeds the working set (typically the training
    rows) and must be nonempty.  Raises on pruner infeasibility, on a
    tied original prediction, if the screen or the oracle ever returns a
    cell already in the working set (impossible under correct solves, so
    it signals a solver bug rather than looping forever), and when
    ``max_iterations`` runs out.
    """
    opts = options or PruneOptions()
    initial_points = list(initial_points)
    if not initial_points:
        raise InputError("at least one initial point is required")
    working = PruneSet(ensemble)
    working.add_points(initial_points)

    t_start = time.perf_counter()
    oracle = Oracle(ensemble, opts.epsilon)
    screen_seconds = time.perf_counter() - t_start
    history: list[IterationRecord] = []
    prune = prune_l0 if opts.norm == "l0" else prune_l1

    for index in range(1, opts.max_iterations + 1):
        t0 = time.perf_counter()
        result = prune(working, margins=build_margins(working))
        t1 = time.perf_counter()
        separation = oracle.refute(result.weights)
        screened = len(separation.cells) + len(separation.tie_cells)
        if not screened:
            separation = separate(oracle, result.weights)
        t2 = time.perf_counter()

        new_cells = separation.cells + separation.tie_cells
        record = IterationRecord(
            index=index, working_set_size=len(working), prune=result,
            pairs=separation.pairs, added_cells=new_cells,
            prune_seconds=t1 - t0, oracle_seconds=t2 - t1)
        history.append(record)
        log.info("iteration %d: |S|=%d objective=%.6g kept=%d new_cells=%d "
                 "(ties %d, screened %d)", index, record.working_set_size,
                 result.objective, len(result.support), len(new_cells),
                 len(separation.tie_cells), screened)

        if not new_cells:
            wall_time = {"prune": 0.0, "oracle": screen_seconds,
                         "total": time.perf_counter() - t_start}
            for r in history:
                wall_time["prune"] += r.prune_seconds
                wall_time["oracle"] += r.oracle_seconds
            return PruneOutcome(weights=result.weights, support=result.support,
                                history=history, wall_time=wall_time)
        for cell in new_cells:
            if cell in working:
                raise PruneCycleError(
                    f"{'screen' if screened else 'oracle'} returned cell "
                    f"{cell} which is already in the working set; its "
                    "constraints should have excluded it (solver tolerance "
                    "bug)")
        working.add_cells(new_cells)

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
