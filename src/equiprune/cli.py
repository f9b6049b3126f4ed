"""Command-line surface: train, prune, verify, predict.

Exit codes: 0 success; 2 no faithful reweighting exists (infeasible or
tied predictions); 3 certification failure (the pruned model provably
disagrees somewhere); 4 bad input (files, formats, oversized
enumeration); 1 unexpected internal failures.  ``verify`` above its cell
cap still runs the oracle: exit 3 if it finds a cell, else 4.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .driver import PruneOptions, accuracy, certified_prune, fidelity
from .ensemble import cell_center, cell_scores_batch, predict_classes_batch
from .errors import (EnumerationCapError, EquipruneError,
                     InfeasiblePruneError, InputError, TiedPredictionError)
from .model_io import load_model, save_model
from .oracle import DEFAULT_EPSILON, Oracle, separate
from .trainer import load_dataset, load_schema, train_adaboost, \
    train_random_forest
from .verifier import MAX_CELLS_DEFAULT, certify

REPORT_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_IDENTICAL = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 4, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="equiprune",
                     description="Prune weighted tree ensembles to a "
                                 "provably prediction-identical subset.")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-iteration progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="train a hard-voting ensemble")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--schema", required=True, help="feature-schema JSON")
    p.add_argument("--model", choices=("ab", "rf"), default="ab",
                   help="boosted stumps/trees (ab) or random forest (rf)")
    p.add_argument("--n-estimators", type=int, default=10)
    p.add_argument("--max-depth", type=int, default=None,
                   help="tree depth (default 1 for ab, 3 for rf)")
    p.add_argument("--seed", type=int, default=0,
                   help="random-forest seed (boosting is deterministic)")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="prune a model with a certificate")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True,
                   help="dataset CSV seeding the working set; also used "
                        "for the report's fidelity/accuracy figures")
    p.add_argument("--norm", choices=("l0", "l1"), default="l0")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--out", required=True, help="pruned model JSON to write")
    p.add_argument("--report", default=None, help="run-report JSON to write")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("verify", help="certify that two models agree")
    p.add_argument("--model", required=True, help="original model JSON")
    p.add_argument("--pruned", required=True,
                   help="reweighted model JSON (same trees)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-cells", type=int, default=MAX_CELLS_DEFAULT)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("predict", help="write predicted classes as CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="prediction CSV to write")
    p.set_defaults(func=cmd_predict)
    return parser


def cmd_train(args) -> int:
    schema = load_schema(args.schema)
    dataset = load_dataset(args.data, schema)
    if args.model == "ab":
        depth = 1 if args.max_depth is None else args.max_depth
        ensemble = train_adaboost(dataset, args.n_estimators, depth)
    else:
        depth = 3 if args.max_depth is None else args.max_depth
        ensemble = train_random_forest(dataset, args.n_estimators, depth,
                                       args.seed)
    save_model(ensemble, args.out)
    train_acc = accuracy(ensemble, ensemble.alpha, dataset.X, dataset.y)
    print(f"wrote {args.out} ({ensemble.num_trees} trees); "
          f"training accuracy {train_acc:.4f}")
    return EXIT_OK


def cmd_prune(args) -> int:
    ensemble = load_model(args.model)
    dataset = load_dataset(args.data, ensemble.schema,
                           num_classes=ensemble.num_classes)
    options = PruneOptions(norm=args.norm, epsilon=args.epsilon,
                           max_iterations=args.max_iters)
    outcome = certified_prune(ensemble, dataset.X, options)
    pruned = replace(ensemble, alpha=tuple(float(w) for w in outcome.weights))
    save_model(pruned, args.out)
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "m_original": ensemble.num_trees,
        "m_pruned": outcome.num_kept,
        "weights": [float(w) for w in outcome.weights],
        "iterations": outcome.iterations,
        "n_oracle": outcome.n_oracle,
        "fidelity_test": fidelity(ensemble, outcome.weights, dataset.X),
        "accuracy_test": accuracy(ensemble, outcome.weights, dataset.X,
                                  dataset.y),
        "wall_time": outcome.wall_time,
        "oracle_pairs": [{"iteration": record.index,
                          "challenger": p.challenger, "original": p.original,
                          "status": p.status.value, "objective": p.objective,
                          "nodes": p.nodes, "pivots": p.iterations,
                          "rows": p.rows, "cols": p.cols, "cuts": p.cuts}
                         for record in outcome.history
                         for p in record.pairs],
        "screened_iterations": [record.index for record in outcome.history
                                if record.screened],
        "prune_rounds": [{"iteration": record.index,
                          "nodes": record.prune.nodes,
                          "pivots": record.prune.iterations,
                          "masters": record.prune.masters,
                          "free_masters": record.prune.free_masters,
                          "lps": record.prune.lps,
                          "warm_lps": record.prune.warm_lps,
                          "free_checks": record.prune.free_checks}
                         for record in outcome.history],
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    screened = sum(len(record.added_cells) for record in outcome.history
                   if record.screened)
    print(f"kept {outcome.num_kept} of {ensemble.num_trees} trees in "
          f"{outcome.iterations} iterations ({outcome.n_oracle} oracle "
          f"solves, {screened} screened cells); wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    original = load_model(args.model)
    pruned = load_model(args.pruned)
    if (pruned.flat != original.flat or pruned.schema != original.schema
            or pruned.num_classes != original.num_classes):
        raise InputError(
            "the pruned model must contain exactly the original trees "
            "(only the weights may differ)")
    doc, capped = {}, None
    try:
        doc = certify(original, pruned.alpha, epsilon=args.epsilon,
                      max_cells=args.max_cells).to_dict()
    except EnumerationCapError as exc:
        capped = str(exc)
    separation = separate(Oracle(original, args.epsilon), pruned.alpha)
    # a tie cell disagrees when the tie-break picks another class there
    ties = separation.tie_cells
    after, before = (np.argmax(cell_scores_batch(original, w, ties), axis=1)
                     for w in (pruned.alpha, original.alpha))
    flips = [cell for cell, flip in zip(ties, after != before) if flip]
    doc["format_version"] = REPORT_FORMAT_VERSION
    doc["checks"] = ["oracle"] if capped else ["enumeration", "oracle"]
    doc["oracle_points"] = [list(cell_center(original.schema, cell))
                            for cell in separation.cells + flips]
    print(json.dumps(doc, indent=2))
    if doc["oracle_points"] or doc.get("identical") is False:
        return EXIT_NOT_IDENTICAL
    if capped:
        print(f"error: the oracle found no disagreement, but {capped}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK


def cmd_predict(args) -> int:
    ensemble = load_model(args.model)
    dataset = load_dataset(args.data, ensemble.schema,
                           num_classes=ensemble.num_classes)
    pred = predict_classes_batch(ensemble, ensemble.alpha, dataset.X)
    with open(args.out, "w") as fh:
        fh.write("prediction\n")
        fh.writelines(f"{int(c)}\n" for c in pred)
    print(f"wrote {len(pred)} predictions to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except (InfeasiblePruneError, TiedPredictionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except EquipruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
