"""Certified-pruning benchmark: time to a certificate, checked against
the exhaustive verifier.

Run from the repository root:

    python3 perfbench/run.py --workload forest3-l0 --seed 1 --seconds 36 --trace 0

One process runs one workload as a closed loop: a single caller sets the
workload up and runs its instances back to back, in passes, until
``--seconds`` have passed (at least ``MIN_PASSES``).  Every result is
checked by ``certify`` and against the reference kept count.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, timed against the host probe of ``probe.py``; with ``--trace 1``
it carries the per-layer metrics of a traced pass, and the trace is
written to ``perfbench/out/``.  The line before it holds machine
information and details of the run.
"""

import os

# Pin the BLAS pools before numpy loads: one thread, never more than nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 5      # untraced passes, each with its own set-up
SETUP_REPEATS = 5   # set-ups before a traced run

END_TO_END_UNITS = {
    "certified_prune_s": "s",
    "setup_s": "s",
    "kept_trees": "count",
    "certified_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "driver.iterations": "count",
    "driver.working_set_final": "count",
    "driver.prune_s": "s",
    "driver.oracle_s": "s",
    "pruner.calls": "count",
    "pruner.s": "s",
    "pruner.margins_s": "s",
    "pruner.nodes": "count",
    "pruner.pivots": "count",
    "oracle.pair_solves": "count",
    "oracle.build_s": "s",
    "oracle.solve_s": "s",
    "oracle.other_s": "s",
    "oracle.nodes": "count",
    "oracle.pivots": "count",
    "oracle.rows_max": "count",
    "oracle.cols_max": "count",
    "oracle.useful_ratio": "ratio",
    "solver.milp_calls": "count",
    "solver.milp_s": "s",
    "solver.lp_calls": "count",
    "solver.lp_s": "s",
    "solver.nodes": "count",
    "solver.pivots": "count",
    "solver.us_per_pivot": "us",
    "solver.pivots_per_node": "count",
    "ensemble.calls": "count",
    "ensemble.s": "s",
    "verifier.certify_s": "s",
    "verifier.cells": "count",
    "trainer.train_s": "s",
    "model_io.roundtrip_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_to_current_cpu() -> int | None:
    """Keep this process on the CPU it runs on now.  The host's cores are
    not equally loaded, and a move between them in the middle of a pass
    changes its speed where the probes around it cannot see it.  Returns
    the CPU, or None where the system does not tell or allow it."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        return None
    return cpu


def machine_info() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "pinned_cpu": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None}


class Bench:
    """One workload's instances and the calls the benchmark times."""

    def __init__(self, instances):
        from equiprune import EquipruneError, certified_prune, certify
        self.instances = instances
        self._prune = certified_prune
        self._certify = certify
        # bare numpy failures: LinAlgError is a ValueError, floating point
        # traps are ArithmeticErrors
        self._failures = (EquipruneError, ArithmeticError, ValueError,
                          IndexError)

    def run_pass(self, tracer=None):
        """Run every instance once.  Returns, per instance, the seconds
        inside ``certified_prune`` and the outcome or the name of the
        exception it raised."""
        times = []
        results = []
        for inst in self.instances:
            args = (inst.ensemble, inst.points, inst.options)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = self._prune(*args)
                else:
                    outcome = tracer.call("driver", "certified_prune",
                                          self._prune, *args)
            except self._failures as exc:
                outcome = type(exc).__name__
            times.append(time.perf_counter() - t0)
            results.append(outcome)
        return times, results

    def gate(self, inst, outcome, tracer=None):
        """None if the outcome is a correct certificate, else why not."""
        if isinstance(outcome, str):
            return f"raised {outcome}"
        weights = outcome.weights
        if tracer is None:
            report = self._certify(inst.ensemble, weights,
                                   inst.options.epsilon)
        else:
            report = tracer.call(
                "verifier", "certify", self._certify, inst.ensemble, weights,
                inst.options.epsilon,
                attrs=lambda args, r: {"cells": r.cells_checked})
        if report.disagreement_cells:
            return f"{len(report.disagreement_cells)} disagreement cells"
        kept = int((weights > 0).sum())
        if inst.options.norm == "l0" and kept != inst.reference_kept:
            return f"kept {kept} trees, reference {inst.reference_kept}"
        return None

    def verdicts(self, results, tracer=None, certified=None):
        """Per instance of one pass, None if its outcome is correct, else
        why not.  ``certified`` holds, per instance, an outcome already
        found correct, or None; an outcome with bit-identical weights is
        correct too and is not certified again."""
        verdicts = []
        for i, (inst, outcome) in enumerate(zip(self.instances, results)):
            known = certified[i] if certified is not None else None
            if known is not None and same_weights([known], [outcome]):
                verdicts.append(None)
            else:
                verdicts.append(self.gate(inst, outcome, tracer))
        return verdicts

    def failures(self, results, tracer=None):
        """Reasons of the failed instances of one pass."""
        return [f"instance {i}: {reason}"
                for i, reason in enumerate(self.verdicts(results, tracer))
                if reason is not None]


def same_weights(a, b) -> bool:
    """Both passes certified every instance with bit-identical weights."""
    return all(not isinstance(x, str) and not isinstance(y, str)
               and x.weights.tobytes() == y.weights.tobytes()
               for x, y in zip(a, b))


def kept_trees(results) -> int:
    return sum(int((o.weights > 0).sum()) for o in results
               if not isinstance(o, str))


def warm_up() -> None:
    """One small certified_prune so that lazy imports and caches are
    settled before timing."""
    from equiprune import certified_prune, load_model
    model = load_model(ROOT / "tests" / "data" / "three_stumps.json")
    certified_prune(model, [[0.0], [0.4], [0.6], [1.0]])


def untraced_run(workload, seed, seconds):
    """Passes until ``seconds`` have passed, each on a fresh set-up and
    each bracketed by two host probes.  Set-up and pass times are
    reported relative to their probes (see ``probe.py``), as the median
    over the passes."""
    from probe import PROBE_REFERENCE_S, host_probe
    from workloads import set_up
    setups, passes, reasons = [], [], []
    probes = [host_probe()]
    certified = None
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        setup = set_up(workload, seed, OUT)
        bench = Bench(setup.instances)
        times, results = bench.run_pass()
        probes.append(host_probe())
        verdicts = bench.verdicts(results, certified=certified)
        reasons += [f"pass {len(passes)}, instance {i}: {reason}"
                    for i, reason in enumerate(verdicts) if reason is not None]
        if certified is None:
            certified = [o if v is None else None
                         for o, v in zip(results, verdicts)]
        setups.append(setup)
        passes.append((times, results))
    first = passes[0][1]
    checks = {"repeatable_weights": all(same_weights(first, r)
                                        for _, r in passes[1:])}
    attempted = len(first) * len(passes)
    pass_s = [sum(times) for times, _ in passes]
    setup_s = [s.seconds for s in setups]
    host = [(a + b) / 2 for a, b in zip(probes, probes[1:])]

    def at_reference_speed(values):
        return PROBE_REFERENCE_S * statistics.median(
            v / h for v, h in zip(values, host))

    metrics = {
        "certified_prune_s": at_reference_speed(pass_s),
        "setup_s": at_reference_speed(setup_s),
        "kept_trees": kept_trees(first),
        "certified_share": (attempted - len(reasons)) / attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes),
            "wall_certified_prune_s": statistics.median(pass_s),
            "wall_setup_s": statistics.median(setup_s),
            "pass_seconds": pass_s, "setup_seconds": setup_s,
            "probe_seconds": probes}
    return metrics, attempted, reasons, checks, info


def traced_run(bench, setups, workload, seed):
    """An untraced reference pass, then two traced passes: the traced
    results must equal the untraced ones and the solver counts must
    repeat exactly."""
    from spans import (Tracer, highs_reference, installed, layer_metrics,
                       solver_counts, write_spans)
    times, reference = bench.run_pass()
    untraced_s = sum(times)
    reasons = bench.failures(reference)
    tracers, traced_s, traced = [], [], []
    for _ in range(2):
        tracer = Tracer()
        with installed(tracer):
            times, results = bench.run_pass(tracer)
        reasons += bench.failures(results, tracer)
        tracers.append(tracer)
        traced_s.append(sum(times))
        traced.append(results)
    checks = {
        "traced_equals_untraced": all(same_weights(reference, r)
                                      for r in traced),
        "solver_counts_repeat":
            solver_counts(tracers[0]) == solver_counts(tracers[1]),
    }
    tracer = tracers[0]
    outcomes = [o for o in traced[0] if not isinstance(o, str)]
    metrics = layer_metrics(tracer, outcomes)
    metrics["trainer.train_s"] = statistics.median(s.train_s for s in setups)
    metrics["model_io.roundtrip_s"] = statistics.median(
        s.roundtrip_s for s in setups)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - untraced_s
    violation_tol = bench.instances[0].options.violation_tol
    highs = highs_reference(tracer, violation_tol)
    if highs is not None:
        checks["highs_optima_match"] = not highs["mismatches"]
    write_spans(tracer, OUT / f"trace-{workload}-seed{seed}.jsonl")
    attempted = 3 * len(bench.instances)
    info = {"untraced_s": untraced_s, "traced_s": traced_s,
            "reference": highs}
    return metrics, attempted, reasons, checks, info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "equiprune" / "__init__.py").is_file():
        print(f"equiprune sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, set_up
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pin_to_current_cpu()
    warm_up()
    if args.trace:
        setups = [set_up(args.workload, args.seed, OUT)
                  for _ in range(SETUP_REPEATS)]
        metrics, attempted, reasons, checks, info = traced_run(
            Bench(setups[-1].instances), setups, args.workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, reasons, checks, info = untraced_run(
            args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "machine": machine_info(),
            "failures": reasons, "checks": checks, **info}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not reasons and all(checks.values()),
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
