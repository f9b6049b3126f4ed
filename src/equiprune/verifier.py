"""Brute-force ground truth: exhaustive cell enumeration.

Everything here deliberately avoids the MIP machinery.  Cells are
enumerated outright (with a hard cap that refuses oversized schemas
rather than silently truncating), predictions on them are compared
directly, the separation objective is maximized by scanning, and tiny
cardinality-minimization instances are solved by subset search.  These
are the oracles the optimization modules are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ensemble import (BinaryFeature, CellSignature, ContinuousFeature,
                       Ensemble, FeatureSchema, _above, _integer,
                       cell_scores_batch)
from .errors import EnumerationCapError, InfeasiblePruneError, InputError
from .oracle import _check_epsilon
from .pruner import PruneSet, build_margins, min_weight_sum
from .solver import SolveStatus

MAX_CELLS_DEFAULT = 200_000
BRUTE_FORCE_MAX_TREES = 8


def _check_cap(schema: FeatureSchema, max_cells: int) -> int:
    total = schema.num_cells()
    if total > max_cells:
        raise EnumerationCapError(
            f"schema induces {total} cells, above the cap of {max_cells}; "
            "refusing a partial enumeration")
    return total


def enumerate_cells(schema: FeatureSchema,
                    max_cells: int = MAX_CELLS_DEFAULT):
    """Yield every cell signature exactly once (feature-major order).
    Refuses outright if the schema induces more than ``max_cells``."""
    _check_cap(schema, max_cells)
    ranges = [range(kind.num_cells) for kind in schema.features]
    yield from itertools.product(*ranges)


def _cell_array(schema: FeatureSchema, max_cells: int) -> np.ndarray:
    cells = np.array(list(enumerate_cells(schema, max_cells)), dtype=np.int64)
    if cells.size == 0:  # zero features: the single empty cell
        cells = cells.reshape(1, 0)
    return cells


@dataclass
class CertificationReport:
    identical: bool
    cells_checked: int
    disagreement_cells: list[CellSignature]   # argmax flips, margin >= eps
    sub_epsilon_cells: list[CellSignature]    # argmax flips inside the eps band

    def to_dict(self) -> dict:
        return {"identical": self.identical,
                "cells_checked": self.cells_checked,
                "disagreement_cells": [list(c) for c in self.disagreement_cells],
                "sub_epsilon_cells": [list(c) for c in self.sub_epsilon_cells]}


def certify(ensemble: Ensemble, weights, epsilon: float,
            max_cells: int = MAX_CELLS_DEFAULT) -> CertificationReport:
    """Compare predictions on every cell, routed as a cell.

    Cells where the reweighting flips the class are partitioned by the
    original ensemble's winning margin: at least ``epsilon`` (inside
    the certificate's reach — real failures) versus below it (invisible
    to an epsilon-margin oracle by construction).  ``identical`` is
    true only when no cell flips at all.
    """
    _check_epsilon(epsilon)
    cells = _cell_array(ensemble.schema, max_cells)
    scores_orig = cell_scores_batch(ensemble, ensemble.alpha, cells)
    pred_orig = np.argmax(scores_orig, axis=1)
    pred_new = np.argmax(cell_scores_batch(ensemble, weights, cells), axis=1)
    top = scores_orig[np.arange(len(cells)), pred_orig]
    second = np.partition(scores_orig, -2, axis=1)[:, -2]
    margin = top - second
    flip = pred_new != pred_orig
    disagreement = [tuple(int(v) for v in cells[i])
                    for i in np.nonzero(flip & (margin >= epsilon))[0]]
    sub_eps = [tuple(int(v) for v in cells[i])
               for i in np.nonzero(flip & (margin < epsilon))[0]]
    return CertificationReport(identical=not (disagreement or sub_eps),
                               cells_checked=len(cells),
                               disagreement_cells=disagreement,
                               sub_epsilon_cells=sub_eps)


def maximize_separation(ensemble: Ensemble, weights, challenger: int,
                        original: int, epsilon: float,
                        max_cells: int = MAX_CELLS_DEFAULT
                        ) -> tuple[float | None, CellSignature | None]:
    """Exhaustive counterpart of one oracle subproblem: over all cells
    where the original weights score ``original`` at least ``epsilon``
    above every other class, maximize the reweighted score gap of
    ``challenger`` over ``original``.  Returns (None, None) when no
    cell qualifies."""
    _check_epsilon(epsilon)
    cells = _cell_array(ensemble.schema, max_cells)
    scores_orig = cell_scores_batch(ensemble, ensemble.alpha, cells)
    others = [c for c in range(ensemble.num_classes) if c != original]
    sep = scores_orig[:, original][:, None] - scores_orig[:, others]
    feasible = np.all(sep >= epsilon, axis=1)
    if not feasible.any():
        return None, None
    scores_new = cell_scores_batch(ensemble, weights, cells)
    gap = scores_new[:, challenger] - scores_new[:, original]
    gap[~feasible] = -np.inf
    i = int(np.argmax(gap))
    return float(gap[i]), tuple(int(v) for v in cells[i])


def brute_force_min_support(prune_set: PruneSet,
                            max_trees: int = BRUTE_FORCE_MAX_TREES) -> int:
    """Smallest number of trees whose reweighting reproduces every
    working-set prediction, by trying all subsets in ascending size.
    Each subset that meets every keep row's cover (a row needs a
    positive entry among the kept trees) is checked with a small LP
    feasibility solve."""
    M = prune_set.ensemble.num_trees
    if M > max_trees:
        raise EnumerationCapError(
            f"{M} trees exceed the subset-search limit of {max_trees}")
    G = build_margins(prune_set)
    covers = G > 0.0
    for k in range(M + 1):
        for subset in itertools.combinations(range(M), k):
            if not covers[:, subset].any(axis=1).all():
                continue
            _, sol = min_weight_sum(G, subset)
            if sol.status == SolveStatus.OPTIMAL:
                return k
    raise InfeasiblePruneError(
        "no reweighting of any subset reproduces the working-set predictions")


def sample_uniform_points(schema: FeatureSchema, n: int,
                          rng: np.random.Generator | int | None = None
                          ) -> np.ndarray:
    """Uniform random points covering every cell: continuous features
    are drawn from [first threshold - 1, ``_above(last threshold)``]
    (or [-1, 1] when no tree splits on them), binary and categorical
    ones uniformly over their values."""
    if _integer(n, "n", InputError) < 1:
        raise InputError(f"need at least one point, got n={n}")
    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(rng)
    cols = []
    for kind in schema.features:
        if isinstance(kind, ContinuousFeature):
            if kind.thresholds:
                lo = kind.thresholds[0] - 1.0
                hi = _above(kind.thresholds[-1])
            else:
                lo, hi = -1.0, 1.0
            cols.append(gen.uniform(lo, hi, size=n))
        elif isinstance(kind, BinaryFeature):
            cols.append(gen.integers(0, 2, size=n).astype(float))
        else:
            cols.append(gen.integers(0, kind.num_levels, size=n).astype(float))
    if not cols:
        return np.empty((n, 0))
    return np.column_stack(cols)
