"""Spans around the calls into each equiprune layer, recorded from
outside the package.

While ``installed`` is active, the module-level names that
``equiprune.driver``, ``.oracle`` and ``.pruner`` call are replaced by
wrappers that time the original function and record a span; a timed
``solve_milp`` goes in through the public ``solve=`` parameters of
``separate`` and ``prune_l0``.  Spans stay in memory; ``write_spans``
writes them out at the end of a run.
"""

from __future__ import annotations

import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from equiprune import driver, oracle, pruner, solver
from equiprune.solver import SolveStatus

# Routing and cell helpers that pruner and oracle call (ensemble layer).
ENSEMBLE_HELPERS = ("cell_of", "cell_center", "cell_class",
                    "cell_score_matrix", "predict_class", "predict_scores")


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    request: int             # index of the root span of this request
    start: float = 0.0
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, layer: str, name: str, fn: Callable, *args,
             attrs: Callable | None = None, **kwargs):
        """Run ``fn`` inside a span; ``attrs(args, result)`` adds
        counts to the span."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        request = index if parent is None else self.spans[parent].request
        span = Span(layer, name, parent, request)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if attrs is not None:
            span.attrs = attrs(args, result)
        return result

    def wrap(self, layer: str, name: str, fn: Callable,
             attrs: Callable | None = None, **defaults) -> Callable:
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, attrs=attrs,
                             **{**defaults, **kwargs})
        return traced

    def parent_of(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]


def _milp_attrs(args, sol) -> dict:
    problem = args[0]
    return {"rows": problem.num_rows, "cols": problem.num_vars,
            "nodes": sol.nodes, "pivots": sol.iterations,
            "status": sol.status.value, "objective": sol.objective,
            "problem": problem}


def _lp_attrs(args, sol) -> dict:
    return {"nodes": 0, "pivots": sol.iterations, "status": sol.status.value}


def _separation_attrs(args, result) -> dict:
    return {"new_cells": len(result.cells) + len(result.tie_cells)}


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in for the duration of the block."""
    milp = tracer.wrap("solver", "solve_milp", solver.solve_milp,
                       attrs=_milp_attrs)
    lp = tracer.wrap("solver", "solve_lp", solver.solve_lp, attrs=_lp_attrs)
    patches = [
        (driver, "separate", tracer.wrap("oracle", "separate",
                                         oracle.separate,
                                         attrs=_separation_attrs,
                                         solve=milp)),
        (driver, "build_margins", tracer.wrap("pruner", "build_margins",
                                              pruner.build_margins)),
        (driver, "compute_big_w", tracer.wrap("pruner", "compute_big_w",
                                              pruner.compute_big_w)),
        (driver, "prune_l0", tracer.wrap("pruner", "prune_l0",
                                         pruner.prune_l0, solve=milp)),
        (driver, "prune_l1", tracer.wrap("pruner", "prune_l1",
                                         pruner.prune_l1)),
        (oracle, "build_separation", tracer.wrap("oracle", "build_separation",
                                                 oracle.build_separation)),
        (pruner, "solve_lp", lp),
    ]
    for module in (oracle, pruner):
        for name in ENSEMBLE_HELPERS:
            if hasattr(module, name):
                patches.append((module, name, tracer.wrap(
                    "ensemble", name, getattr(module, name))))
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _total(spans: list[Span], key: str | None = None) -> float:
    if key is None:
        return float(sum(s.seconds for s in spans))
    return float(sum(s.attrs[key] for s in spans))


def solver_counts(tracer: Tracer) -> list[tuple[str, int, int]]:
    """(name, nodes, pivots) of every solver call, in call order."""
    return [(s.name, s.attrs["nodes"], s.attrs["pivots"])
            for s in tracer.spans if s.layer == "solver"]


def oracle_solves(tracer: Tracer) -> list[Span]:
    return [s for s in tracer.named("solve_milp")
            if tracer.parent_of(s).name == "separate"]


def layer_metrics(tracer: Tracer, outcomes: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``outcomes`` are the
    ``PruneOutcome`` objects of its certified instances."""
    m: dict[str, float] = {}
    m["driver.iterations"] = sum(o.iterations for o in outcomes)
    m["driver.working_set_final"] = sum(o.history[-1].working_set_size
                                        for o in outcomes)
    m["driver.prune_s"] = sum(o.wall_time["prune"] for o in outcomes)
    m["driver.oracle_s"] = sum(o.wall_time["oracle"] for o in outcomes)

    solves = tracer.named("solve_milp", "solve_lp")
    by_pruner = [s for s in solves if tracer.parent_of(s).layer == "pruner"]
    pruner_steps = [s for s in tracer.spans if s.layer == "pruner"
                    and tracer.parent_of(s).layer == "driver"]
    m["pruner.calls"] = len(tracer.named("prune_l0", "prune_l1"))
    m["pruner.s"] = _total(pruner_steps)
    m["pruner.margins_s"] = _total(tracer.named("build_margins"))
    m["pruner.nodes"] = _total(by_pruner, "nodes")
    m["pruner.pivots"] = _total(by_pruner, "pivots")

    separations = tracer.named("separate")
    pair_solves = oracle_solves(tracer)
    builds = tracer.named("build_separation")
    m["oracle.pair_solves"] = len(pair_solves)
    m["oracle.build_s"] = _total(builds)
    m["oracle.solve_s"] = _total(pair_solves)
    m["oracle.other_s"] = (_total(separations) - m["oracle.build_s"]
                           - m["oracle.solve_s"])
    m["oracle.nodes"] = _total(pair_solves, "nodes")
    m["oracle.pivots"] = _total(pair_solves, "pivots")
    m["oracle.rows_max"] = max(s.attrs["rows"] for s in pair_solves)
    m["oracle.cols_max"] = max(s.attrs["cols"] for s in pair_solves)
    m["oracle.useful_ratio"] = (_total(separations, "new_cells")
                                / len(pair_solves))

    milps = tracer.named("solve_milp")
    lps = tracer.named("solve_lp")
    m["solver.milp_calls"] = len(milps)
    m["solver.milp_s"] = _total(milps)
    m["solver.lp_calls"] = len(lps)
    m["solver.lp_s"] = _total(lps)
    m["solver.nodes"] = _total(solves, "nodes")
    m["solver.pivots"] = _total(solves, "pivots")
    m["solver.us_per_pivot"] = (1e6 * _total(solves)
                                / max(m["solver.pivots"], 1))
    # branch-and-bound nodes counted with each root relaxation
    m["solver.pivots_per_node"] = (_total(milps, "pivots")
                                   / (_total(milps, "nodes") + len(milps)))

    helpers = [s for s in tracer.spans if s.layer == "ensemble"]
    m["ensemble.calls"] = len(helpers)
    m["ensemble.s"] = _total(helpers)

    certifies = tracer.named("certify")
    m["verifier.certify_s"] = _total(certifies)
    m["verifier.cells"] = _total(certifies, "cells")
    return m


# HiGHS's default feasibility tolerances (1e-7 primal, 1e-6 MIP) are as
# wide as the oracle's strictness margin epsilon (1e-6): at the defaults
# HiGHS returns points that violate a margin row by up to 1e-6 and reports
# optima the builtin solver rightly rejects.  These are below both.
HIGHS_FEASIBILITY_TOL = 1e-9


def _highs_solve(p) -> tuple[int, float | None]:
    """HiGHS status and optimum of a MilpProblem.  HiGHS accepts
    integers within 1e-6, so its optimum is polished like the builtin
    one: integers fixed at their rounding and the LP re-solved."""
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp
    sign = -1.0 if p.maximize else 1.0
    lower = np.where(p.senses == -1, -np.inf, p.b)
    upper = np.where(p.senses == 1, np.inf, p.b)
    with warnings.catch_warnings():
        # scipy passes the tolerance options on to HiGHS but warns that
        # it does not know them
        warnings.simplefilter("ignore", RuntimeWarning)
        res = milp(sign * p.c, integrality=p.integer.astype(int),
                   bounds=Bounds(p.lower, p.upper),
                   constraints=LinearConstraint(p.A, lower, upper),
                   options={"mip_rel_gap": 0.0,
                            "primal_feasibility_tolerance":
                                HIGHS_FEASIBILITY_TOL,
                            "mip_feasibility_tolerance":
                                HIGHS_FEASIBILITY_TOL})
    if res.status != 0:
        return int(res.status), None
    lo, up = p.lower.copy(), p.upper.copy()
    lo[p.integer] = up[p.integer] = np.round(res.x[p.integer])
    eq = p.senses == 0
    A_ub = np.vstack([p.A[p.senses == -1], -p.A[p.senses == 1]])
    b_ub = np.concatenate([p.b[p.senses == -1], -p.b[p.senses == 1]])
    lp = linprog(sign * p.c, A_ub=A_ub, b_ub=b_ub, A_eq=p.A[eq],
                 b_eq=p.b[eq], bounds=np.column_stack([lo, up]),
                 method="highs")
    return 0, sign * (lp.fun if lp.status == 0 else res.fun)


def highs_reference(tracer: Tracer, violation_tol: float) -> dict | None:
    """Re-solve every captured oracle MIP with scipy's HiGHS.  Returns
    None when scipy is not importable."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return None
    solves = oracle_solves(tracer)
    seconds = 0.0
    mismatches = []
    for span in solves:
        t0 = time.perf_counter()
        status, theirs = _highs_solve(span.attrs["problem"])
        seconds += time.perf_counter() - t0
        ours = span.attrs["objective"]
        if status == 0:
            ok = (span.attrs["status"] == SolveStatus.OPTIMAL.value
                  and abs(ours - theirs) <= violation_tol)
        else:  # HiGHS status 2: infeasible
            ok = (status == 2
                  and span.attrs["status"] == SolveStatus.INFEASIBLE.value)
        if not ok:
            mismatches.append({"builtin": ours, "highs": theirs,
                               "highs_status": status,
                               "rows": span.attrs["rows"],
                               "cols": span.attrs["cols"]})
    return {"highs_s": seconds, "mips": len(solves),
            "mismatches": mismatches}


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON line per span; start and end relative to the first."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            attrs = {k: v for k, v in s.attrs.items() if k != "problem"}
            fh.write(json.dumps({"id": i, "parent": s.parent,
                                 "request": s.request, "layer": s.layer,
                                 "name": s.name, "start": s.start - t0,
                                 "end": s.end - t0, **attrs}) + "\n")
